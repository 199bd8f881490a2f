package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// Parity policy, asserted by these tests:
//
//   - CosineWeightPair, SpectralMul, ColumnGeom and AccumLinePair perform the
//     same float32 operations in the same order in both variants, so fast
//     and ref are BIT-identical — including NaN/Inf propagation.
//   - DIF, DIT, RealUnpack and RealRepack decompose the complex64
//     multiply into explicit float32 arithmetic in the fast variant (the
//     builtin rounds through float64), so they differ by ~1 ulp per
//     operation: parity is checked to 1e-6 relative — 10× tighter than the
//     required ≤1e-5 bound — and non-finite inputs must poison exactly the
//     same elements in both variants. Within the fast variant the portable
//     passes and the AVX2 tier are BIT-identical (tier_test.go).

func eqBits(a, b float32) bool {
	return a == b || (math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
}

func finite(c complex64) bool {
	re, im := float64(real(c)), float64(imag(c))
	return !math.IsNaN(re) && !math.IsInf(re, 0) && !math.IsNaN(im) && !math.IsInf(im, 0)
}

// checkComplexParity compares two complex slices element-wise: finite
// elements must agree within tol·peak, and non-finite ("poisoned") elements
// must coincide.
func checkComplexParity(t *testing.T, name string, ref, fast []complex64, tol float64) {
	t.Helper()
	var peak float64
	for _, c := range ref {
		if finite(c) {
			peak = math.Max(peak, math.Max(math.Abs(float64(real(c))), math.Abs(float64(imag(c)))))
		}
	}
	bound := tol * (peak + 1)
	for i := range ref {
		rf, ff := finite(ref[i]), finite(fast[i])
		if rf != ff {
			t.Fatalf("%s: element %d poisoned in one variant only: ref=%v fast=%v", name, i, ref[i], fast[i])
		}
		if !rf {
			continue
		}
		if d := math.Max(math.Abs(float64(real(ref[i])-real(fast[i]))),
			math.Abs(float64(imag(ref[i])-imag(fast[i])))); d > bound {
			t.Fatalf("%s: element %d diverges by %g (> %g): ref=%v fast=%v", name, i, d, bound, ref[i], fast[i])
		}
	}
}

// widths covers odd/even and non-power-of-two row lengths, including the
// unroll tail cases 1..3.
var widths = []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100, 513}

func randRow(rng *rand.Rand, n int, poison bool) []float32 {
	row := make([]float32, n)
	for i := range row {
		row[i] = float32(rng.NormFloat64())
	}
	if poison && n > 0 {
		switch rng.Intn(3) {
		case 0:
			row[rng.Intn(n)] = float32(math.NaN())
		case 1:
			row[rng.Intn(n)] = float32(math.Inf(1))
		case 2:
			row[rng.Intn(n)] = float32(math.Inf(-1))
		}
	}
	return row
}

func TestCosineWeightParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range widths {
		for trial := 0; trial < 20; trial++ {
			src0, src1 := randRow(rng, n, trial%3 == 0), randRow(rng, n, trial%4 == 0)
			cos0, cos1 := randRow(rng, n, trial%5 == 0), randRow(rng, n, false)
			ref := make([]complex64, n)
			fast := make([]complex64, n)
			CosineWeightPairRef(ref, src0, cos0, src1, cos1)
			cosineWeightPairFast(fast, src0, cos0, src1, cos1)
			for i := range ref {
				if !eqBits(real(ref[i]), real(fast[i])) || !eqBits(imag(ref[i]), imag(fast[i])) {
					t.Fatalf("n=%d: dst[%d] ref=%v fast=%v", n, i, ref[i], fast[i])
				}
				if !eqBits(real(ref[i]), src0[i]*cos0[i]) || !eqBits(imag(ref[i]), src1[i]*cos1[i]) {
					t.Fatalf("n=%d: dst[%d] = %v, want (%v, %v)", n, i, ref[i], src0[i]*cos0[i], src1[i]*cos1[i])
				}
			}
		}
	}
}

func TestSpectralMulParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range widths {
		for trial := 0; trial < 20; trial++ {
			re := randRow(rng, n, trial%3 == 0)
			im := randRow(rng, n, trial%4 == 0)
			gain := randRow(rng, n, trial%5 == 0)
			ref := make([]complex64, n)
			fast := make([]complex64, n)
			for i := range ref {
				ref[i] = complex(re[i], im[i])
				fast[i] = ref[i]
			}
			SpectralMulRef(ref, gain)
			spectralMulFast(fast, gain)
			for i := range ref {
				if !eqBits(real(ref[i]), real(fast[i])) || !eqBits(imag(ref[i]), imag(fast[i])) {
					t.Fatalf("n=%d: spec[%d] ref=%v fast=%v", n, i, ref[i], fast[i])
				}
			}
		}
	}
}

// ColumnGeom over a run of columns must give, bit for bit in both variants,
// what the formula gives column by column — including a singular projection
// (z = 0 divides to ±Inf, which must flow through identically).
func TestColumnGeomParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 5, 8, 31, 32} {
		for trial := 0; trial < 8; trial++ {
			var r [3][4]float32
			for row := range r {
				for c := range r[row] {
					r[row][c] = float32(rng.NormFloat64())
				}
			}
			if trial == 0 {
				r[2] = [4]float32{}
			}
			i, j0 := rng.Intn(512), rng.Intn(512)
			usR, fsR, wsR := make([]float32, n), make([]float32, n), make([]float32, n)
			usF, fsF, wsF := make([]float32, n), make([]float32, n), make([]float32, n)
			ColumnGeomRef(usR, fsR, wsR, &r, i, j0)
			columnGeomFast(usF, fsF, wsF, &r, i, j0)
			for c := 0; c < n; c++ {
				fi, fj := float32(i), float32(j0+c)
				f := 1 / (r[2][0]*fi + r[2][1]*fj + r[2][3])
				u := (r[0][0]*fi + r[0][1]*fj + r[0][3]) * f
				if !eqBits(usR[c], u) || !eqBits(fsR[c], f) || !eqBits(wsR[c], f*f) {
					t.Fatalf("n=%d column %d: ref=(%v,%v,%v), formula (%v,%v,%v)",
						n, c, usR[c], fsR[c], wsR[c], u, f, f*f)
				}
				if !eqBits(usR[c], usF[c]) || !eqBits(fsR[c], fsF[c]) || !eqBits(wsR[c], wsF[c]) {
					t.Fatalf("n=%d column %d: ref=(%v,%v,%v) fast=(%v,%v,%v)",
						n, c, usR[c], fsR[c], wsR[c], usF[c], fsF[c], wsF[c])
				}
			}
		}
	}
}

func randComplex(rng *rand.Rand, n int, poison bool) []complex64 {
	re, im := randRow(rng, n, poison), randRow(rng, n, poison)
	x := make([]complex64, n)
	for i := range x {
		x[i] = complex(re[i], im[i])
	}
	return x
}

// bitReverse returns x permuted so out[i] = x[rev(i)] over log₂len(x) bits.
func bitReverse(x []complex64) []complex64 {
	out := make([]complex64, len(x))
	shift := 32 - bits.TrailingZeros(uint(len(x)))
	for i := range x {
		out[i] = x[int(uint64(bits.Reverse32(uint32(i)))>>shift)]
	}
	return out
}

// fftLengths covers n < 4 (no radix-4 pass), both parities of log₂n and the
// pipeline's 1024- and 2048-point rows.
var fftLengths = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 2048}

// Fast and reference transforms must agree to 1e-6 of the peak in both
// orders and both directions, and a NaN or ±Inf must poison the same
// elements in both.
func TestRadix4Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range fftLengths {
		for _, inverse := range []bool{false, true} {
			tw := FFTTwiddles(n, inverse)
			for trial := 0; trial < 10; trial++ {
				x := randComplex(rng, n, trial >= 7)
				for _, leg := range []struct {
					name      string
					ref, fast func(x, tw []complex64)
				}{{"dif", DIFRef, difFast}, {"dit", DITRef, ditFast}} {
					ref := append([]complex64(nil), x...)
					fast := append([]complex64(nil), x...)
					leg.ref(ref, tw)
					leg.fast(fast, tw)
					checkComplexParity(t, fmt.Sprintf("%s n=%d inverse=%v", leg.name, n, inverse), ref, fast, 1e-6)
				}
			}
		}
	}
}

// DIF must leave the DFT in bit-reversed order and DIT must compute the DFT
// of a bit-reversed input, against a naive float64 DFT; and an inverse DIT
// straight after a forward DIF — no permutation between them — must return
// n·x, which is what the ramp filter relies on.
func TestRadix4MatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range fftLengths {
		if n > 256 {
			continue // the naive DFT is O(n²)
		}
		x := randComplex(rng, n, false)
		for _, inverse := range []bool{false, true} {
			sign := -1.0
			if inverse {
				sign = 1
			}
			want := make([]complex64, n)
			for k := range want {
				var acc complex128
				for j, v := range x {
					sin, cos := math.Sincos(sign * 2 * math.Pi * float64(j*k%n) / float64(n))
					acc += complex128(v) * complex(cos, sin)
				}
				want[k] = complex64(acc)
			}
			tw := FFTTwiddles(n, inverse)
			for _, ref := range []bool{false, true} {
				dif, dit := difFast, ditFast
				if ref {
					dif, dit = DIFRef, DITRef
				}
				got := append([]complex64(nil), x...)
				dif(got, tw)
				checkComplexParity(t, fmt.Sprintf("dif n=%d inverse=%v ref=%v", n, inverse, ref), bitReverse(want), got, 1e-6)
				got = bitReverse(x)
				dit(got, tw)
				checkComplexParity(t, fmt.Sprintf("dit n=%d inverse=%v ref=%v", n, inverse, ref), want, got, 1e-6)
			}
		}
	}
	for _, n := range fftLengths {
		x := randComplex(rng, n, false)
		got := append([]complex64(nil), x...)
		difFast(got, FFTTwiddles(n, false))
		ditFast(got, FFTTwiddles(n, true))
		for i := range got {
			got[i] = complex(real(got[i])/float32(n), imag(got[i])/float32(n))
		}
		checkComplexParity(t, fmt.Sprintf("dit(dif) n=%d", n), x, got, 1e-6)
	}
}

func TestFFTTwiddlesRejectsNonPow2(t *testing.T) {
	for _, n := range []int{0, 3, 12, -8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FFTTwiddles(%d) should panic", n)
				}
			}()
			FFTTwiddles(n, false)
		}()
	}
}

// The capacity FFTTwiddles reserves is the length it fills: twiddleLen is
// what DIF and DIT hold a table to.
func TestTwiddleLen(t *testing.T) {
	for n := 1; n <= 4096; n <<= 1 {
		if tw := FFTTwiddles(n, false); len(tw) != twiddleLen(n) || cap(tw) != len(tw) {
			t.Errorf("FFTTwiddles(%d): len %d cap %d, twiddleLen %d", n, len(tw), cap(tw), twiddleLen(n))
		}
	}
}

// DIF and DIT must refuse, before touching x, a row that is not a power of
// two and a table built for another length — on the references too, which
// used to index out of range or return garbage.
func TestTransformRejectsBadLengths(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, ntw int // ntw: the length the table was built for
		want   string
	}{
		{"empty row", 0, 1, "not a power of two"},
		{"row of 12", 12, 16, "not a power of two"},
		{"row of 1000", 1000, 1024, "not a power of two"},
		{"table for 4n", 16, 64, "twiddle table of length 64"},
		{"table for n/2", 32, 16, "twiddle table of length 16"},
		{"odd-log table for even-log row", 16, 8, "twiddle table of length 7"},
	} {
		for _, ref := range []bool{false, true} {
			for name, transform := range map[string]func(x, tw []complex64){"DIF": DIF, "DIT": DIT} {
				func() {
					useFast = !ref
					defer func() {
						useFast = true
						if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
							t.Errorf("%s %s ref=%v: panic %q, want one naming %q", name, tc.name, ref, msg, tc.want)
						}
					}()
					x := make([]complex64, tc.n)
					transform(x, FFTTwiddles(tc.ntw, false))
				}()
			}
		}
	}
}

func TestRealUnpackRepackParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{1, 2, 4, 8, 32, 128, 512} {
		w := make([]complex64, m/2+1)
		for k := range w {
			angle := -2 * math.Pi * float64(k) / float64(2*m)
			w[k] = complex(float32(math.Cos(angle)), float32(math.Sin(angle)))
		}
		for trial := 0; trial < 10; trial++ {
			poison := trial >= 7
			re := randRow(rng, m+1, poison)
			im := randRow(rng, m+1, poison)
			ref := make([]complex64, m+1)
			fast := make([]complex64, m+1)
			for i := range ref {
				ref[i] = complex(re[i], im[i])
				fast[i] = ref[i]
			}
			RealUnpackRef(ref, w, m)
			realUnpackFast(fast, w, m)
			checkComplexParity(t, "unpack", ref, fast, 1e-6)

			for i := range ref {
				ref[i] = complex(re[i], im[i])
				fast[i] = ref[i]
			}
			RealRepackRef(ref, w, m)
			realRepackFast(fast, w, m)
			checkComplexParity(t, "repack", ref, fast, 1e-6)
		}
	}
}

// lineCase is one AccumLinePair call: a detector, a line geometry and the
// accumulators' prior contents.
type lineCase struct {
	proj                          []float32
	rw, rh, k0                    int
	u, f, wdis, yb, ry2, ry3, vm1 float32
	sum, sym                      []float32
}

// borderLanes reports, as a bit per lane kk%8, where along the line a sample
// or its mirror leaves [0, rw-1) — the samples the vector tier must hand
// back to the scalar code.
func (c lineCase) borderLanes() (lanes uint8, interior int) {
	vMax := float32(c.rw - 1)
	for kk := range c.sum {
		v := (c.yb + c.ry2*float32(c.k0+kk) + c.ry3) * c.f
		vSym := c.vm1 - v
		if v >= 0 && v < vMax && vSym >= 0 && vSym < vMax {
			interior++
		} else {
			lanes |= 1 << (kk % 8)
		}
	}
	return lanes, interior
}

// accumLineCases builds the parity corpus: lines of 0…300 k at random k0
// over odd, tiny and realistic detectors; random geometries; geometries
// aimed so the line enters and leaves the detector in every lane of an
// 8-block; NaN/±Inf in f, ry2, u and the pixels; and a vm1 that disagrees
// with the row length (the range test must not trust it).
func accumLineCases(t *testing.T) []lineCase {
	rng := rand.New(rand.NewSource(6))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	dims := []struct{ rw, rh int }{{1, 4}, {2, 5}, {3, 3}, {5, 8}, {8, 5}, {17, 33}, {64, 64}, {33, 100}, {256, 40}}
	var cases []lineCase
	var crossed uint8
	for _, d := range dims {
		clean := randRow(rng, d.rw*d.rh, false)
		dirty := append([]float32(nil), clean...)
		for _, bad := range []float32{nan, inf, -inf} {
			dirty[rng.Intn(len(dirty))] = bad
		}
		for trial := 0; trial < 160; trial++ {
			nk := rng.Intn(301)
			c := lineCase{
				proj: clean, rw: d.rw, rh: d.rh, k0: rng.Intn(1000),
				vm1: float32(d.rw - 1),
				sum: randRow(rng, nk, false), sym: randRow(rng, nk, false),
			}
			if trial%4 == 0 {
				c.proj = dirty
			}
			// u is interior four times in eleven; otherwise it sweeps both
			// borders, fully outside, and NaN/Inf.
			c.u = float32(rng.Float64()) * float32(d.rh-1)
			if n := trial % 11; n >= 4 {
				c.u = []float32{-0.5, -1.5, float32(d.rh) - 1, float32(d.rh) - 0.5, float32(d.rh) + 2, nan, inf}[n-4]
			}
			c.f = float32(rng.NormFloat64())
			c.wdis = c.f * c.f
			if trial%2 == 0 {
				// Arbitrary line: mostly off the detector.
				c.yb = float32(rng.NormFloat64()) * 10
				c.ry2 = float32(rng.NormFloat64())
				c.ry3 = float32(rng.NormFloat64())
			} else {
				// Aimed line: v advances `step` px per k and crosses v = 0 (or
				// leaves through the far edge) at k index `cross`, which walks
				// every lane of every early block.
				step := float32(0.05 + 2.5*rng.Float64())
				if trial%3 == 0 {
					step = -step
				}
				cross := trial / 2 % 40
				c.ry2 = step / c.f
				c.ry3 = float32(rng.Float64()) / c.f
				c.yb = -c.ry2 * float32(c.k0+cross)
			}
			switch trial % 23 {
			case 5:
				c.ry2 = nan // poisons v for every k
			case 11:
				c.f = inf
			case 17:
				c.f = nan
			case 19:
				c.ry2 = -inf
			case 21:
				c.vm1 = float32(d.rw + 7) // mirror lands past the row end
			}
			if lanes, interior := c.borderLanes(); interior >= 8 {
				crossed |= lanes
			}
			cases = append(cases, c)
		}
	}
	if crossed != 0xFF {
		t.Fatalf("corpus puts a border sample in lanes %08b of a line with interior blocks, want all 8", crossed)
	}
	return cases
}

// TestAccumLinePairParity asserts three-way bit equality: the reference, the
// portable fast loop and (where the CPU has it) the AVX2 tier.
func TestAccumLinePairParity(t *testing.T) {
	cases := accumLineCases(t)
	for _, tier := range []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(tier.name, func(t *testing.T) {
			if tier.avx2 && !hasAVX2() {
				t.Skip("CPU or OS without AVX2")
			}
			defer SetAVX2(tier.avx2)()
			for n, c := range cases {
				sumR := append([]float32(nil), c.sum...)
				symR := append([]float32(nil), c.sym...)
				sumF := append([]float32(nil), c.sum...)
				symF := append([]float32(nil), c.sym...)
				AccumLinePairRef(sumR, symR, c.proj, c.rw, c.rh, c.u, c.f, c.wdis, c.yb, c.ry2, c.ry3, c.vm1, c.k0)
				accumLinePairFast(sumF, symF, c.proj, c.rw, c.rh, c.u, c.f, c.wdis, c.yb, c.ry2, c.ry3, c.vm1, c.k0)
				for i := range sumR {
					if !eqBits(sumR[i], sumF[i]) || !eqBits(symR[i], symF[i]) {
						t.Fatalf("case %d rw=%d rh=%d nk=%d k0=%d u=%v f=%v ry2=%v k=%d: ref=(%v,%v) fast=(%v,%v)",
							n, c.rw, c.rh, len(c.sum), c.k0, c.u, c.f, c.ry2, i, sumR[i], symR[i], sumF[i], symF[i])
					}
				}
			}
		})
	}
}

// TestAccumBlocksAVX2Stops pins the assembly's contract with its caller: it
// consumes whole interior blocks only, and stops in front of the block that
// holds the first border lane, whichever lane that is.
func TestAccumBlocksAVX2Stops(t *testing.T) {
	if !hasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
	const rw, nk = 400, 300
	rng := rand.New(rand.NewSource(7))
	row0, row1 := randRow(rng, rw, false), randRow(rng, rw, false)
	sum, sym := make([]float32, nk), make([]float32, nk)
	// v = yb - kk (and its mirror rw-1-v) is interior exactly while kk < yb.
	call := func(yb float32) int {
		return accumBlocksAVX2(&sum[0], &sym[0], nk, &row0[0], &row1[0],
			rw-1, 0.25, 1, 1, yb, -1, 0, rw-1, 0)
	}
	if got := call(nk + 0.5); got != nk&^7 {
		t.Fatalf("interior line: consumed %d of %d, want %d", got, nk, nk&^7)
	}
	for kk := 0; kk < 64; kk++ {
		if got := call(float32(kk) - 0.5); got != kk&^7 {
			t.Fatalf("first border sample at k=%d: consumed %d, want %d", kk, got, kk&^7)
		}
	}
}
