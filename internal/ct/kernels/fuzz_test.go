package kernels_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/pkg/volume"
)

// FuzzRadix4Tiers drives DIF and DIT, the two wrappers that hand slices to
// assembly, with row lengths and twiddle tables they must refuse as well as
// ones they must transform, on the portable tier, on AVX2 with AVX-512 off
// and, where the host has it, on AVX-512:
//
//   - size is the row length 0…4096, or with mode bit 7 the exponent of a
//     power of two up to 4096;
//   - mode bit 0 is the direction, bit 1 picks DIT over DIF, bits 2–3 the
//     table: right, one short, one long, or the right table for twice the
//     length; bit 4 picks Convolve, the fused DIF → gain → DIT, with the
//     table as its forward end, the right table of the other direction as
//     its inverse end and a gain per element from the contents;
//   - contents are float32 bit patterns (NaN, ±Inf and denormals included),
//     repeated to fill the row.
//
// A call must panic on every tier with the same message or on none; a
// transformed row must be bit-identical across tiers (any NaN for a NaN);
// and the canaries either side of the row must survive.
func FuzzRadix4Tiers(f *testing.F) {
	const pow2, dit, short, long, other, conv = 0x80, 0x02, 0x04, 0x08, 0x0C, 0x10
	nan, inf, denormal := []byte{0, 0, 0xC0, 0x7F}, []byte{0, 0, 0x80, 0xFF}, []byte{1, 0, 0, 0}
	finite := []byte{0, 0, 0x80, 0x3F, 0, 0, 0x20, 0xC1, 0xDB, 0x0F, 0x49, 0x40} // 1, −10, π
	for _, size := range []uint16{0, 1, 2, 3, 4, 8, 12, 16, 100, 512, 1024, 2048, 4095, 4096} {
		f.Add(size, uint8(0), finite)
		f.Add(size, uint8(1|dit), finite)
	}
	for exp := uint16(0); exp <= 12; exp++ {
		f.Add(exp, uint8(pow2), append(append(append([]byte(nil), finite...), nan...), finite...))
		f.Add(exp, uint8(pow2|dit|1), append(append(append([]byte(nil), inf...), finite...), denormal...))
	}
	for _, exp := range []uint16{0, 1, 3, 4, 10, 11} {
		for _, table := range []uint8{short, long, other} {
			f.Add(exp, pow2|table, finite)
			f.Add(exp, pow2|table|dit|1, finite)
		}
	}
	f.Add(uint16(10), uint8(pow2), []byte(nil))
	// The fused kernel at L = 8…1024, both parities of log₂L, and its
	// refusals.
	for exp := uint16(0); exp <= 10; exp++ {
		f.Add(exp, uint8(pow2|conv), append(append([]byte(nil), finite...), denormal...))
		f.Add(exp, uint8(pow2|conv|1), append(append([]byte(nil), nan...), finite...))
	}
	for _, table := range []uint8{short, long, other} {
		f.Add(uint16(10), pow2|conv|table, finite)
		f.Add(uint16(9), pow2|conv|table, finite)
	}
	f.Add(uint16(100), uint8(conv), finite)

	f.Fuzz(func(t *testing.T, size uint16, mode uint8, contents []byte) {
		if !kernels.HasAVX2() {
			t.Skip("CPU or OS without AVX2: there is one tier here, nothing to compare")
		}
		n := int(size) % 4097
		if mode&pow2 != 0 {
			n = 1 << (size % 13)
		}
		word := func(i int) float32 {
			if len(contents) < 4 {
				return 0
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(contents[4*(i%(len(contents)/4)):]))
		}
		transform := kernels.DIF
		if mode&dit != 0 {
			transform = kernels.DIT
		}
		if mode&conv != 0 {
			inv, gain := tableFor(n, mode&1 == 0, 0), make([]float32, n)
			for i := range gain {
				gain[i] = word(3*i + 1)
			}
			transform = func(x, tw []complex64) { kernels.Convolve(x, tw, gain, inv) }
		}
		tw := tableFor(n, mode&1 != 0, mode&other)

		const pad = 64
		canary := complex(math.Float32frombits(0xCAFEF00D), math.Float32frombits(0x0DDBA11))
		row := func() []complex64 {
			backing := make([]complex64, pad+n+pad)
			for i := range backing {
				backing[i] = canary
			}
			for i := 0; i < n; i++ {
				backing[pad+i] = complex(word(2*i), word(2*i+1))
			}
			return backing
		}
		run := func(tier tier) (backing []complex64, panicked any) {
			backing = row()
			defer func() { panicked = recover() }()
			onTier(tier, func() { transform(backing[pad:pad+n:pad+n], tw) })
			return backing, nil
		}
		portable, portablePanic := run(goTier)
		wantPanic := n < 1 || n&(n-1) != 0 || len(tw) != len(kernels.FFTTwiddles(n, false))
		if (portablePanic != nil) != wantPanic {
			t.Fatalf("n=%d mode=%#x: panic %v, want one: %v", n, mode, portablePanic, wantPanic)
		}
		for _, tier := range vectorTiers {
			if !tier.available() {
				continue
			}
			vector, vectorPanic := run(tier)
			if fmt.Sprint(portablePanic) != fmt.Sprint(vectorPanic) {
				t.Fatalf("n=%d mode=%#x: go panics with %v, %s with %v", n, mode, portablePanic, tier.name, vectorPanic)
			}
			for _, backing := range [][]complex64{portable, vector} {
				for i, c := range backing {
					if (i < pad || i >= pad+n) && c != canary {
						t.Fatalf("n=%d mode=%#x %s: canary %d (row is [%d, %d)) overwritten with %v", n, mode, tier.name, i, pad, pad+n, c)
					}
				}
			}
			sameComplexBits(t, fmt.Sprintf("n=%d mode=%#x", n, mode), tier.name, portable[pad:pad+n], vector[pad:pad+n])
		}
	})
}

// FuzzApplyEncodedTiers drives filter.ApplyEncoded, the pipeline's entry
// from a staged projection's bytes into the transposed block, against the
// chain it replaces — volume.ImageFromBytesInto, ApplyInto in place,
// TransposeInto — on the portable tier, on AVX2 with AVX-512 off and, where
// the host has it, on AVX-512:
//
//   - nu × nv is the detector, 1…40 × 1…24 (Nv = 1, odd Nv and Nu that
//     are not powers of two included);
//   - mode bit 0 cuts the blob short by cut bytes, bit 1 and bit 2 add
//     one to the header's W and H, bit 3 writes cut into the header's W
//     outright (an inconsistent header), bit 4 makes the block cut values
//     too long or, with bit 5, too short;
//   - contents are the payload's float32 bit patterns (NaN, signalling
//     NaN, ±Inf and −0 included), repeated to fill it.
//
// ApplyEncoded must fail exactly when the chain would — the decode fails or
// the block is not Nu·Nv long — and then write nothing; otherwise it must
// equal the chain's output bit for bit (any NaN for a NaN). Canaries past
// the block's end must survive either way.
func FuzzApplyEncodedTiers(f *testing.F) {
	const short, wideHdr, tallHdr, rawW, longBlk, shortBlk = 0x01, 0x02, 0x04, 0x08, 0x10, 0x20
	nan, snan, inf, negZero := []byte{0, 0, 0xC0, 0x7F}, []byte{1, 0, 0x80, 0x7F}, []byte{0, 0, 0x80, 0xFF}, []byte{0, 0, 0, 0x80}
	ramp := []byte{0, 0, 0x80, 0x3F, 0, 0, 0x20, 0xC1, 0xDB, 0x0F, 0x49, 0x40, 0xCD, 0xCC, 0x4C, 0x3E}
	for _, det := range [][2]uint8{{32, 16}, {16, 1}, {17, 9}, {40, 23}, {5, 3}, {1, 1}, {33, 24}} {
		f.Add(det[0], det[1], uint8(0), uint8(0), ramp)
		f.Add(det[0], det[1], uint8(0), uint8(0), append(append([]byte(nil), ramp...), nan...))
		f.Add(det[0], det[1], uint8(0), uint8(0), append(append(append([]byte(nil), snan...), ramp...), negZero...))
		f.Add(det[0], det[1], uint8(0), uint8(0), append(append([]byte(nil), inf...), ramp...))
	}
	for _, mode := range []uint8{short, wideHdr, tallHdr, wideHdr | tallHdr, rawW, longBlk, longBlk | shortBlk} {
		f.Add(uint8(32), uint8(16), mode, uint8(1), ramp)
		f.Add(uint8(17), uint8(9), mode, uint8(7), ramp)
	}
	f.Add(uint8(32), uint8(16), uint8(short), uint8(255), ramp) // shorter than the header
	f.Add(uint8(32), uint8(16), uint8(0), uint8(0), []byte(nil))

	f.Fuzz(func(t *testing.T, nu, nv, mode, cut uint8, contents []byte) {
		g := geometry.Default(max(1, int(nu)%41), max(1, int(nv)%25), 8, 8, 8, 8)
		flt, err := filter.Cached(g, filter.Hann)
		if err != nil {
			t.Skip(err)
		}
		word := func(i int) float32 {
			if len(contents) < 4 {
				return float32(i % 5)
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(contents[4*(i%(len(contents)/4)):]))
		}
		img := volume.NewImage(g.Nu, g.Nv)
		for i := range img.Data {
			img.Data[i] = word(i)
		}
		blob := volume.ImageToBytes(img)
		if mode&wideHdr != 0 {
			binary.LittleEndian.PutUint32(blob[0:], uint32(g.Nu+1))
		}
		if mode&tallHdr != 0 {
			binary.LittleEndian.PutUint32(blob[4:], uint32(g.Nv+1))
		}
		if mode&rawW != 0 {
			binary.LittleEndian.PutUint32(blob[0:], uint32(cut))
		}
		if mode&short != 0 {
			blob = blob[:max(0, len(blob)-int(cut))]
		}
		blockLen := g.Nu * g.Nv
		if mode&longBlk != 0 {
			if mode&shortBlk != 0 {
				blockLen = max(0, blockLen-int(cut))
			} else {
				blockLen += int(cut)
			}
		}

		const pad = 64
		canary := math.Float32frombits(0xCAFEF00D)
		for _, tier := range tiers[1:] {
			if !tier.available() {
				continue
			}
			onTier(tier, func() {
				name := fmt.Sprintf("%dx%d mode=%#x cut=%d %s", g.Nu, g.Nv, mode, cut, tier.name)
				dec := volume.NewImage(g.Nu, g.Nv)
				chainErr := volume.ImageFromBytesInto(dec, blob)
				if chainErr == nil && blockLen != g.Nu*g.Nv {
					chainErr = fmt.Errorf("block of %d", blockLen)
				}
				backing := make([]float32, blockLen+pad)
				for i := range backing {
					backing[i] = canary
				}
				err := flt.ApplyEncoded(blob, backing[:blockLen:blockLen])
				if (err != nil) != (chainErr != nil) {
					t.Fatalf("%s: ApplyEncoded error %v, chain error %v", name, err, chainErr)
				}
				for i := blockLen; i < len(backing); i++ {
					if math.Float32bits(backing[i]) != math.Float32bits(canary) {
						t.Fatalf("%s: canary %d past the block overwritten with %v", name, i-blockLen, backing[i])
					}
				}
				if err != nil {
					for i, x := range backing[:blockLen] {
						if math.Float32bits(x) != math.Float32bits(canary) {
							t.Fatalf("%s: failed call wrote %v at %d", name, x, i)
						}
					}
					return
				}
				if err := flt.ApplyInto(dec, dec); err != nil {
					t.Fatal(err)
				}
				want := dec.Transpose()
				for i, x := range want.Data {
					if got := backing[i]; math.Float32bits(got) != math.Float32bits(x) && !(got != got && x != x) {
						t.Fatalf("%s: block[%d] = %v, chain gives %v", name, i, got, x)
					}
				}
			})
		}
	})
}

// tableFor returns the twiddle table the fuzz target pairs with an n-point
// row: right (0), one short (0x04), one long (0x08), or right for a row of
// 2n (0x0C). A length FFTTwiddles refuses gets the table of the next power
// of two, so the row length is what the wrapper has to catch.
func tableFor(n int, inverse bool, wrong uint8) []complex64 {
	m := 1
	for m < n {
		m <<= 1
	}
	if wrong == 0x0C {
		m <<= 1
	}
	tw := kernels.FFTTwiddles(m, inverse)
	switch wrong {
	case 0x04:
		tw = tw[:len(tw)-1]
	case 0x08:
		tw = append(tw, 1)
	}
	return tw
}

// FuzzAccumColumnsTiers drives AccumColumns and AccumColumnsWindow, the
// wrappers that hand a tile row to assembly, with shapes they must refuse
// as well as ones they must accumulate: AccumColumns on the reference, the
// portable tier and AVX2, AccumColumnsWindow on the portable tier and (where
// the host has it) the AVX-512 window tier:
//
//   - h is the slab depth 0…40, cols the run length 0…9 (9 is one column
//     too many), rw × rh the detector 0…299 × 0…39, and i, j0, k0 any
//     int16;
//   - mode bit 0 cuts the accumulator one float short, bit 1 the
//     projection; bit 2 aims the tile row at the detector (u interior, v
//     crossing it from a fuzzed start at a fuzzed slope), otherwise the
//     matrix is raw; bit 3 moves an aimed row's mirror pivot vm1 up to half
//     a row either side of the row end, so mirrors leave the detector
//     where their v does not, and the other way round;
//   - geom is float32 bit patterns (NaN, ±Inf and denormals included),
//     repeated to fill the matrix, vm1 and the pixels.
//
// A call must panic on every leg with the same message or on none; the
// run's lanes must be bit-identical on every leg and the reference (any NaN
// for a NaN), the window legs read column-major; and the canaries either
// side of the accumulator and the projection must survive.
func FuzzAccumColumnsTiers(f *testing.F) {
	const shortAcc, shortProj, aim, pivot = 0x01, 0x02, 0x04, 0x08
	nan, inf, denormal := []byte{0, 0, 0xC0, 0x7F}, []byte{0, 0, 0x80, 0xFF}, []byte{1, 0, 0, 0}
	ramp := []byte{0x10, 0x32, 0x54, 0x76, 0x98, 0xBA, 0xDC, 0xFE, 0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF}
	for _, h := range []uint8{1, 2, 4, 8, 32, 40} {
		for cols := uint8(1); cols <= 8; cols++ {
			f.Add(h, cols, uint16(64), uint16(64), int16(3), int16(8*cols), int16(h), uint8(aim), ramp)
		}
		f.Add(h, uint8(8), uint16(33), uint16(17), int16(-5), int16(100), int16(-h), uint8(aim), append(append([]byte(nil), ramp...), nan...))
		f.Add(h, uint8(5), uint16(256), uint16(39), int16(200), int16(-7), int16(1000), uint8(aim), append(append([]byte(nil), inf...), ramp...))
		f.Add(h, uint8(8), uint16(64), uint16(64), int16(1), int16(2), int16(3), uint8(0), ramp)
		// u across the detector's middle and v from inside the detector at
		// ∓0.8 px per depth, with the pivot 26 px past the row end or inside
		// it: each crossing that only one range test sees — v or its mirror
		// past the end or below 0 with the other interior — comes some
		// depths down.
		for _, v := range [][2]float64{{0.3, 0.6}, {0.3, 0.3}, {0.7, 0.6}, {0.7, 0.47}} {
			for _, pv := range []float64{0.1, 0.9} {
				f.Add(h, uint8(8), uint16(64), uint16(64), int16(1), int16(2), int16(3), uint8(aim|pivot), units(0.5, 0.5, 0.5, 0.55, v[0], v[1], pv))
			}
		}
		f.Add(h, uint8(8), uint16(64), uint16(64), int16(1), int16(2), int16(3), uint8(aim), units(0.5, 0.5, 0.5, 0.55, 0.45, 0.5))
	}
	for _, dim := range [][2]uint16{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 8}, {2, 2}, {2, 3}, {299, 39}} {
		f.Add(uint8(4), uint8(8), dim[0], dim[1], int16(0), int16(0), int16(0), uint8(aim), ramp)
		f.Add(uint8(3), uint8(3), dim[0], dim[1], int16(9), int16(1), int16(5), uint8(0), append(append([]byte(nil), denormal...), ramp...))
	}
	for _, mode := range []uint8{shortAcc, shortProj, shortAcc | shortProj} {
		f.Add(uint8(8), uint8(8), uint16(64), uint16(64), int16(3), int16(8), int16(8), mode|aim, ramp)
		f.Add(uint8(0), uint8(8), uint16(64), uint16(64), int16(3), int16(8), int16(8), mode|aim, ramp)
	}
	f.Add(uint8(4), uint8(9), uint16(64), uint16(64), int16(3), int16(8), int16(8), uint8(aim), ramp)
	f.Add(uint8(4), uint8(0), uint16(64), uint16(64), int16(3), int16(8), int16(8), uint8(aim), ramp)
	f.Add(uint8(4), uint8(8), uint16(64), uint16(64), int16(3), int16(8), int16(8), uint8(aim), []byte(nil))
	// Window shapes: rows of 31 and 32 samples (one short of a window, and
	// exactly one) and of 96, slabs of 16, 20 and 40 depths, v starting
	// near either end of the row or mid-row, at −1 to 1.96 rows per depth:
	// 16-depth windows, 8-depth ones, and blocks that leave the row.
	for _, rw := range []uint16{31, 32, 96} {
		for _, h := range []uint8{16, 20, 40} {
			for _, v := range [][2]float64{{0.02, 0.6}, {0.5, 0.74}, {0.97, 0.9}, {0.5, 0.25}, {0.5, 0.99}} {
				f.Add(h, uint8(8), rw, uint16(40), int16(7), int16(16), int16(h), uint8(aim), units(0.5, 0.5, 0.5, 0.5, v[1], v[0]))
			}
		}
	}

	f.Fuzz(func(t *testing.T, h, cols uint8, rw, rh uint16, i, j0, k0 int16, mode uint8, geom []byte) {
		if !kernels.HasAVX2() {
			t.Skip("CPU or OS without AVX2: there is one fast tier here, nothing to compare")
		}
		depth, n := int(h)%41, int(cols)%10
		w, ht := int(rw)%300, int(rh)%40
		word := func(k int) float32 {
			if len(geom) < 4 {
				return 0
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(geom[4*(k%(len(geom)/4)):]))
		}
		unit := func(k int) float32 { // [0, 1) from a word's top 24 bits
			return float32(math.Float32bits(word(k))>>8) / (1 << 24)
		}
		var r [3][4]float32
		vm1 := float32(w - 1)
		if mode&aim != 0 {
			fi, fj0, fk0 := float32(i), float32(j0), float32(k0)
			z0 := 0.8 + 0.4*unit(0)
			r[2] = [4]float32{0, 0, 0, z0}
			r[0][1] = 0.05 * unit(1) * z0
			r[0][3] = unit(2)*0.8*float32(ht-1)*z0 - r[0][1]*fj0
			r[1][1] = (unit(3) - 0.5) * z0
			r[1][2] = (unit(4) - 0.5) * 4 * z0
			r[1][3] = unit(5)*float32(w-1)*z0 - r[1][2]*fk0 - r[1][1]*fj0 - r[1][0]*fi
			if mode&pivot != 0 {
				vm1 += (unit(6) - 0.5) * float32(w)
			}
		} else {
			for k := range 12 {
				r[k/4][k%4] = word(k)
			}
			vm1 = word(12)
		}

		const pad = 64
		accCanary, projCanary := math.Float32frombits(0xCAFEF00D), float32(1e30)
		accLen, projLen := 2*depth*kernels.Lanes, w*ht
		if mode&shortAcc != 0 && accLen > 0 {
			accLen--
		}
		if mode&shortProj != 0 && projLen > 0 {
			projLen--
		}
		proj := make([]float32, pad+projLen+pad)
		for p := range proj {
			proj[p] = projCanary
			if p >= pad && p < pad+projLen {
				proj[p] = word(13 + p)
			}
		}
		prior := make([]float32, pad+accLen+pad)
		for p := range prior {
			prior[p] = accCanary
			if p >= pad && p < pad+accLen {
				prior[p] = float32(p % 7)
			}
		}
		// The window legs start from the same prior, laid out column-major:
		// depth kk of lane c at c·2h+kk instead of kk·Lanes+c.
		colPrior := append([]float32(nil), prior...)
		for x := 0; x < accLen; x++ {
			kk, c := x/kernels.Lanes, x%kernels.Lanes
			if y := c*2*depth + kk; y < accLen {
				colPrior[pad+y] = prior[pad+x]
			}
		}
		run := func(ref, avx2, window bool) (acc []float32, panicked any) {
			defer kernels.SetAVX2(avx2)()
			defer kernels.SetAVX512(avx2 && window)()
			if ref {
				defer kernels.UseRef()()
			}
			accum := kernels.AccumColumns
			acc = append([]float32(nil), prior...)
			if window {
				accum = kernels.AccumColumnsWindow
				acc = append([]float32(nil), colPrior...)
			}
			defer func() { panicked = recover() }()
			accum(acc[pad:pad+accLen:pad+accLen], proj[pad:pad+projLen:pad+projLen],
				w, ht, &r, int(i), int(j0), n, int(k0), depth, vm1)
			return acc, nil
		}
		// The legs: AccumColumns on go and avx2, AccumColumnsWindow on go
		// and on the window tier (skipped where the host lacks AVX-512).
		type leg struct {
			name      string
			avx2, win bool
			acc       []float32
			panicked  any
		}
		legs := []leg{{name: "go"}, {name: "avx2", avx2: true}, {name: "window go", win: true}, {name: "window avx512", avx2: true, win: true}}
		if !kernels.HasAVX512() {
			legs = legs[:3]
		}
		for l := range legs {
			legs[l].acc, legs[l].panicked = run(false, legs[l].avx2, legs[l].win)
		}

		name := fmt.Sprintf("h=%d n=%d %dx%d mode=%#x", depth, n, w, ht, mode)
		for _, l := range legs[1:] {
			if fmt.Sprint(legs[0].panicked) != fmt.Sprint(l.panicked) {
				t.Fatalf("%s: go panics with %v, %s with %v", name, legs[0].panicked, l.name, l.panicked)
			}
		}
		wantPanic := n > kernels.Lanes || mode&shortProj != 0 && w*ht > 0 || mode&shortAcc != 0 && depth > 0
		if (legs[0].panicked != nil) != wantPanic {
			t.Fatalf("%s: panic %v, want one: %v", name, legs[0].panicked, wantPanic)
		}
		for _, l := range legs {
			for p, x := range l.acc {
				if (p < pad || p >= pad+accLen) && math.Float32bits(x) != math.Float32bits(accCanary) {
					t.Fatalf("%s: %s: canary %d (acc is [%d, %d)) overwritten with %v", name, l.name, p, pad, pad+accLen, x)
				}
			}
		}
		for p, x := range proj {
			if (p < pad || p >= pad+projLen) && x != projCanary {
				t.Fatalf("%s: projection canary %d overwritten with %v", name, p, x)
			}
		}
		if wantPanic {
			return
		}
		reference, _ := run(true, false, false)
		same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b) }
		for kk := 0; kk < 2*depth; kk++ {
			for c := range n {
				x := pad + kk*kernels.Lanes + c
				for _, l := range legs {
					got := l.acc[x]
					if l.win {
						got = l.acc[pad+c*2*depth+kk]
					}
					if !same(got, reference[x]) {
						t.Fatalf("%s: depth %d lane %d = %v on %s, %v on ref", name, kk, c, got, l.name, reference[x])
					}
				}
			}
		}
	})
}

// units encodes fractions in [0, 1) as the geometry words whose top 24
// bits FuzzAccumColumnsTiers reads back as those fractions.
func units(us ...float64) []byte {
	out := make([]byte, 0, 4*len(us))
	for _, u := range us {
		out = binary.LittleEndian.AppendUint32(out, uint32(u*(1<<24))<<8)
	}
	return out
}
