package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// Parity policy, asserted by these tests:
//
//   - CosineWeightPairLE, ColumnGeom and AccumColumns perform the same float32 operations in the same order in
//     both variants, so fast and ref are BIT-identical — including NaN/Inf
//     propagation. TransposePairs copies bits.
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

// CosineWeightPairLE weights the little-endian bytes of the two rows: at
// every byte offset of the payload (0–3, as a blob's rows sit after its
// 8-byte header at any slice start), on ref, the portable loop and AVX2, it
// must equal complex(x0·c0, x1·c1) on the decoded rows bit for bit, NaN
// payloads included (the cosines are finite, so a NaN can only come from
// the row and is quieted the same way by every multiply).
func TestCosineWeightParityLE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	encode := func(row []float32, off int) []byte {
		b := make([]byte, off+4*len(row))
		for i, x := range row {
			binary.LittleEndian.PutUint32(b[off+4*i:], math.Float32bits(x))
		}
		return b[off:]
	}
	defer SetAVX2(useAVX2)()
	for _, n := range append(widths, 64, 512) {
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 6; trial++ {
				src0, src1 := randRow(rng, n, trial%3 == 0), randRow(rng, n, trial%2 == 0)
				if n > 0 && trial == 5 {
					src0[rng.Intn(n)] = math.Float32frombits(0x7F800001) // signalling NaN
					src1[rng.Intn(n)] = float32(math.Copysign(0, -1))
				}
				cos0, cos1 := randRow(rng, n, false), randRow(rng, n, false)
				b0, b1 := encode(src0, off), encode(src1, off)
				want := make([]complex64, n)
				for i := range want {
					want[i] = complex(src0[i]*cos0[i], src1[i]*cos1[i])
				}
				for _, tier := range []struct {
					name       string
					fast, avx2 bool
				}{{"ref", false, false}, {"go", true, false}, {"avx2", true, true}} {
					if tier.avx2 && !hasAVX2() {
						continue
					}
					SetAVX2(tier.avx2)
					got := make([]complex64, n)
					if tier.fast {
						CosineWeightPairLE(got, b0, cos0, b1, cos1)
					} else {
						CosineWeightPairLERef(got, b0, cos0, b1, cos1)
					}
					for i := range want {
						if math.Float32bits(real(got[i])) != math.Float32bits(real(want[i])) ||
							math.Float32bits(imag(got[i])) != math.Float32bits(imag(want[i])) {
							t.Fatalf("%s n=%d offset %d trial %d: dst[%d] = %v, decoded rows give %v", tier.name, n, off, trial, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TransposePairs copies bits: every row count 0…16 of up to eight pairs,
// at column counts around the vector loop's step of 4, on the portable loop
// and AVX2 — aligned for the non-temporal stores and not — must write
// exactly dst[u·stride + v] = row v at u and leave everything else alone.
func TestTransposePairs(t *testing.T) {
	defer SetAVX2(useAVX2)()
	const canary = float32(-7.5)
	rng := rand.New(rand.NewSource(12))
	for _, nu := range []int{0, 1, 3, 4, 5, 8, 13, 64} {
		l := max(nu, 1) + 3
		src := make([]complex64, LinePairs*l)
		for i := range src {
			src[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
		}
		for rows := 0; rows <= 2*LinePairs; rows++ {
			for _, stride := range []int{rows, 16, 24, 19} {
				if stride < rows {
					continue
				}
				for _, avx2 := range []bool{false, true} {
					if avx2 && !hasAVX2() {
						continue
					}
					SetAVX2(avx2)
					for _, lead := range []int{0, 1, 8} { // float offset of the block in its backing array
						n := 0
						if nu > 0 {
							n = (nu-1)*stride + rows
						}
						backing := make([]float32, lead+n+16)
						for i := range backing {
							backing[i] = canary
						}
						TransposePairs(backing[lead:lead+n:lead+n], stride, src, l, nu, rows)
						for i, x := range backing {
							want := canary
							if j := i - lead; j >= 0 && j < n && j%stride < rows {
								u, v := j/stride, j%stride
								c := src[(v/2)*l+u]
								want = real(c)
								if v%2 == 1 {
									want = imag(c)
								}
							}
							if math.Float32bits(x) != math.Float32bits(want) {
								t.Fatalf("avx2=%v nu=%d rows=%d stride=%d lead=%d: element %d = %v, want %v", avx2, nu, rows, stride, lead, i-lead, x, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestTransposePairsRejectsShortOperands(t *testing.T) {
	for _, tc := range []struct {
		name             string
		dst, stride, src int
		l, nu, rows      int
	}{
		{"dst one short", 3*16 + 15, 16, 8 * 4, 4, 4, 16},
		{"src one short", 3*16 + 16, 16, 7*4 + 3, 4, 4, 16},
		{"stride below rows", 100, 15, 8 * 4, 4, 4, 16},
		{"columns past the pair length", 100, 16, 8 * 4, 4, 5, 16},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			TransposePairs(make([]float32, tc.dst), tc.stride, make([]complex64, tc.src), tc.l, tc.nu, tc.rows)
		}()
	}
}

// ColumnGeom over a run of columns must give, bit for bit in both variants
// and in AccumColumns' AVX2 lanes, what the formula gives column by column —
// including a singular projection (z = 0 divides to ±Inf, which must flow
// through identically).
func TestColumnGeomParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 31, 32} {
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
			if n >= 1 && n <= Lanes && hasAVX2() {
				checkColumnLanes(t, &r, i, j0, usR, fsR, wsR)
			}
		}
	}
}

// checkColumnLanes holds columnLanesAVX2 to the reference column registers
// us, fs, ws of the run (i, j0…j0+len(us)-1): every lane bit for bit, the
// lanes past the run repeating its last column, yb by the formula, and on a
// 5-sample-wide detector whose rows leave u interior wherever u ≥ 0, the
// interior flag, the row offset and the fraction of u.
func checkColumnLanes(t *testing.T, r *[3][4]float32, i, j0 int, us, fs, ws []float32) {
	t.Helper()
	const rw, rh = 5, 1 << 20
	var g lanes
	interior := columnLanesAVX2(&g, r, float32(i), rh-1, j0, len(us), rw)
	want := true
	for c := range Lanes {
		s := min(c, len(us)-1)
		yb := r[1][0]*float32(i) + r[1][1]*float32(j0+s)
		if !eqBits(g.u[c], us[s]) || !eqBits(g.f[c], fs[s]) || !eqBits(g.w[c], ws[s]) || !eqBits(g.yb[c], yb) {
			t.Fatalf("n=%d lane %d: avx2=(%v,%v,%v,%v), ref=(%v,%v,%v,%v)",
				len(us), c, g.u[c], g.f[c], g.w[c], g.yb[c], us[s], fs[s], ws[s], yb)
		}
		u := us[s]
		if !(u >= 0 && u < rh-1) {
			want = false
			continue
		}
		if nu := int(u); g.off[c] != int32(nu*rw) || g.du[c] != u-float32(nu) {
			t.Fatalf("n=%d lane %d: u=%v gives off %d du %v, want %d %v", len(us), c, u, g.off[c], g.du[c], nu*rw, u-float32(nu))
		}
	}
	if interior != want {
		t.Fatalf("n=%d: interior %v, want %v (us=%v)", len(us), interior, want, us)
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
// what DIF and DIT hold a table to. The vector passes find a pass's runs in
// the table of the whole row at the offsets of a shorter row's table, so
// the table of m points must be a prefix of the table of n points, bit for
// bit, whenever log₂m and log₂n share their parity.
func TestTwiddleLen(t *testing.T) {
	for n := 1; n <= 4096; n <<= 1 {
		tw := FFTTwiddles(n, false)
		if len(tw) != twiddleLen(n) || cap(tw) != len(tw) {
			t.Errorf("FFTTwiddles(%d): len %d cap %d, twiddleLen %d", n, len(tw), cap(tw), twiddleLen(n))
		}
		for m := n >> 2; m >= 1; m >>= 2 {
			for i, w := range FFTTwiddles(m, false) {
				if math.Float32bits(real(w)) != math.Float32bits(real(tw[i])) || math.Float32bits(imag(w)) != math.Float32bits(imag(tw[i])) {
					t.Fatalf("FFTTwiddles(%d)[%d] = %v, FFTTwiddles(%d)[%d] = %v", m, i, w, n, i, tw[i])
				}
			}
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

// columnsCase is one AccumColumns call: a detector, a tile row's geometry
// and the accumulator's prior contents.
type columnsCase struct {
	proj         []float32
	rw, rh       int
	r            [3][4]float32
	i, j0, n, k0 int
	h            int
	vm1          float32
	acc          []float32 // 2h·Lanes
}

func (c *columnsCase) call(acc []float32, fn func(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32)) {
	fn(acc, c.proj, c.rw, c.rh, &c.r, c.i, c.j0, c.n, c.k0, c.h, c.vm1)
}

// firstBorder reports the first depth at which a column's sample or its
// mirror leaves [0, rw-1) — where the assembly must stop — and a bit per
// column that does so there; h and 0 when every depth is interior.
func (c *columnsCase) firstBorder() (depth int, lanes uint8) {
	us, fs, ws := make([]float32, c.n), make([]float32, c.n), make([]float32, c.n)
	ColumnGeomRef(us, fs, ws, &c.r, c.i, c.j0)
	vMax := float32(c.rw - 1)
	for kk := 0; kk < c.h; kk++ {
		for lane, f := range fs {
			yb := c.r[1][0]*float32(c.i) + c.r[1][1]*float32(c.j0+lane)
			v := (yb + c.r[1][2]*float32(c.k0+kk) + c.r[1][3]) * f
			vSym := c.vm1 - v
			if !(v >= 0 && v < vMax && vSym >= 0 && vSym < vMax) {
				lanes |= 1 << lane
			}
		}
		if lanes != 0 {
			return kk, lanes
		}
	}
	return c.h, 0
}

// nonInterior is a bit per column whose u has no two detector rows.
func (c *columnsCase) nonInterior() (lanes uint8) {
	us, fs, ws := make([]float32, c.n), make([]float32, c.n), make([]float32, c.n)
	ColumnGeomRef(us, fs, ws, &c.r, c.i, c.j0)
	for lane, u := range us {
		if !(u >= 0 && u < float32(c.rh-1)) {
			lanes |= 1 << lane
		}
	}
	return lanes
}

// accumColumnsCases builds the parity corpus: runs of 1–8 columns, slab
// depths 1–40 at k0 ≠ 0, over odd, tiny and realistic detectors; random
// geometries, mostly off the detector; geometries aimed so that the run's
// last column, its first, or all of it leaves the detector first at a chosen
// depth; u crossing a detector edge at a chosen column; NaN/±Inf in f, ry2,
// u and the pixels; and a vm1 that disagrees with the row length (the range
// test must not trust it). It fails unless the corpus puts the first border
// sample of a tile row with interior u in every lane at every depth below
// 40, and a non-interior u in every lane.
func accumColumnsCases(t *testing.T) []columnsCase {
	const maxDepth = 40
	rng := rand.New(rand.NewSource(6))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	uniform := func(lo, hi float64) float32 { return float32(lo + (hi-lo)*rng.Float64()) }
	dims := []struct{ rw, rh int }{{1, 4}, {2, 5}, {3, 3}, {5, 8}, {8, 5}, {17, 33}, {64, 64}, {33, 100}, {256, 40}}
	var cases []columnsCase
	var stops [maxDepth]uint8 // stops[d]: lanes seen holding the first border sample at depth d
	var outside uint8         // lanes seen with a non-interior u
	var depths [maxDepth + 1]bool
	aimed := 0
	for _, d := range dims {
		clean := randRow(rng, d.rw*d.rh, false)
		dirty := append([]float32(nil), clean...)
		for _, bad := range []float32{nan, inf, -inf} {
			dirty[rng.Intn(len(dirty))] = bad
		}
		vMax := float32(d.rw - 1)
		for trial := 0; trial < 400; trial++ {
			c := columnsCase{
				proj: clean, rw: d.rw, rh: d.rh,
				i: rng.Intn(512), j0: rng.Intn(512), n: 1 + trial%Lanes, k0: 1 + rng.Intn(1000),
				vm1: vMax,
			}
			if trial%4 == 0 {
				c.proj = dirty
			}
			for row := range c.r {
				for col := range c.r[row] {
					c.r[row][col] = float32(rng.NormFloat64())
				}
			}
			fi, fj0 := float32(c.i), float32(c.j0)
			// z and so f are the same in every column of an aimed or
			// edge-crossing row: z0 = r[2][3].
			z0 := uniform(0.8, 1.25)
			if trial%2 == 0 {
				// Arbitrary tile row: mostly off the detector.
				c.h = 1 + trial/2%maxDepth
				c.r[1][0] *= 10
				c.r[1][1] *= 10
			} else {
				// Aimed tile row: u interior; v rises sp px per depth and
				// steps gp px per column, so the highest column — the last,
				// or with the step negated the first, or with gp = 0 all of
				// them — reaches vMax + sp/2 at depth `depth`, leaving through
				// the far edge (and its mirror through 0) first.
				target, depth := aimed%Lanes, aimed/Lanes%maxDepth
				aimed++
				c.h = depth + 1 + rng.Intn(maxDepth-depth)
				c.r[2] = [4]float32{0, 0, c.r[2][2], z0}
				f := 1 / z0
				uc := uniform(0.1, 0.55) * float32(d.rh-1)
				c.r[0] = [4]float32{0, z0 * uniform(0, 0.05), c.r[0][2], 0}
				c.r[0][3] = z0*uc - c.r[0][1]*fj0
				sp := min(vMax/float32(depth+Lanes)*uniform(0.3, 0.9), 0.2*vMax)
				gp := sp * uniform(0.6, 1)
				top := target
				switch {
				case aimed%4 == 0:
					c.n, gp = Lanes, 0
				case target > 0:
					c.n = target + 1
				default:
					c.n, gp = 1+rng.Intn(Lanes), -gp // column 0 is highest
				}
				c.r[1][1] = gp / f
				c.r[1][2] = sp / f
				yb := c.r[1][0]*fi + c.r[1][1]*float32(c.j0+top)
				c.r[1][3] = (vMax+sp/2)/f - c.r[1][2]*float32(c.k0+depth) - yb
			}
			// u crosses an edge at column `edge` in five trials of eleven,
			// the column sitting on -0.5, -1.5, rh-1, rh-0.5, rh+2, NaN or
			// Inf.
			if k := trial % 11; k >= 6 {
				edge := trial % c.n
				u := []float32{-0.5, -1.5, float32(d.rh) - 1, float32(d.rh) - 0.5, float32(d.rh) + 2, nan, inf}[trial/11%7]
				step := uniform(-0.3, 0.3)
				c.r[2] = [4]float32{0, 0, c.r[2][2], z0}
				c.r[0] = [4]float32{0, step * z0, c.r[0][2], (u - step*float32(c.j0+edge)) * z0}
			}
			switch trial % 23 {
			case 5:
				c.r[1][2] = nan // poisons v for every depth
			case 11:
				c.r[2] = [4]float32{} // z = 0: f = +Inf
			case 17:
				c.r[2][3] = nan // f = NaN
			case 19:
				c.r[1][2] = -inf
			case 21:
				c.vm1 = float32(d.rw + 7) // mirror lands past the row end
			}
			c.acc = randRow(rng, 2*c.h*Lanes, false)
			depths[c.h] = true
			outside |= c.nonInterior()
			if c.nonInterior() == 0 {
				if depth, lanes := c.firstBorder(); depth < c.h {
					stops[depth] |= lanes
				}
			}
			cases = append(cases, c)
		}
	}
	for d, lanes := range stops {
		if lanes != 0xFF {
			t.Fatalf("corpus puts the first border sample at depth %d in lanes %08b, want all 8", d, lanes)
		}
	}
	if outside != 0xFF {
		t.Fatalf("corpus puts a non-interior u in lanes %08b, want all 8", outside)
	}
	for h := 1; h <= maxDepth; h++ {
		if !depths[h] {
			t.Fatalf("corpus has no tile row of depth %d", h)
		}
	}
	return cases
}

// TestAccumColumnsParity asserts three-way bit equality on the corpus: the
// reference, the portable fast loop and (where the CPU has it) the AVX2
// tier, on the lanes of the run — the lanes past it are scratch.
func TestAccumColumnsParity(t *testing.T) {
	cases := accumColumnsCases(t)
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
				ref := append([]float32(nil), c.acc...)
				fast := append([]float32(nil), c.acc...)
				c.call(ref, AccumColumnsRef)
				c.call(fast, accumColumnsFast)
				for kk := 0; kk < 2*c.h; kk++ {
					for lane := range c.n {
						if x := kk*Lanes + lane; !eqBits(ref[x], fast[x]) {
							t.Fatalf("case %d rw=%d rh=%d n=%d h=%d k0=%d r=%v: depth %d lane %d: ref=%v fast=%v",
								n, c.rw, c.rh, c.n, c.h, c.k0, c.r, kk, lane, ref[x], fast[x])
						}
					}
				}
			}
		})
	}
}

// TestAccumColumnsAVX2Stops pins the assembly's contract with its caller:
// it consumes exactly the depths in front of the first depth that holds a
// border sample, whichever lane holds it and whichever edge it crosses, and
// leaves that depth and everything past it untouched. It checks one lane at
// every depth of a 64-deep slab, a NaN lane, and every tile row of the
// parity corpus whose u are all interior.
func TestAccumColumnsAVX2Stops(t *testing.T) {
	if !hasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
	rng := rand.New(rand.NewSource(7))
	// consumed runs the assembly over h depths from k and checks that it
	// wrote no depth past the ones it reports.
	consumed := func(t *testing.T, g *lanes, proj []float32, rw, h int, ry2, ry3, vm1 float32, k int) int {
		t.Helper()
		prior := randRow(rng, 2*h*Lanes, false)
		acc := append([]float32(nil), prior...)
		n := accumColumnsAVX2(&acc[0], &acc[h*Lanes], h, &proj[0], &proj[rw], g, float32(rw-1), ry2, ry3, vm1, k)
		for kk := n; kk < h; kk++ {
			for _, x := range []int{kk, h + kk} {
				for lane := range Lanes {
					if i := x*Lanes + lane; math.Float32bits(acc[i]) != math.Float32bits(prior[i]) {
						t.Fatalf("consumed %d depths but wrote depth %d", n, x)
					}
				}
			}
		}
		return n
	}

	// Lane L's y is d - 0.5 - k (falling) or vMax - d + 0.5 + k (rising),
	// so its v leaves [0, vMax) at exactly k = d through 0 or the far edge,
	// and its mirror through the other. Lane c's y is lane L's + 65·(c-L),
	// and its f keeps it interior up to d: falling, f = -1 below L and 1
	// above; rising, 1 below and 1/2 above.
	const rw, rh, h, step = 1000, 4, 64, 65
	proj := randRow(rng, rw*rh, false)
	line := func(lane, d int, ry2 float32) *lanes {
		y0 := float32(d) - 0.5
		if ry2 > 0 {
			y0 = rw - 1 - float32(d) + 0.5
		}
		g := new(lanes)
		for c := range Lanes {
			u := float32(c%3) + 0.25
			g.u[c], g.du[c], g.off[c] = u, 0.25, int32(c%3*rw)
			g.yb[c] = y0 + step*float32(c-lane)
			g.f[c], g.w[c] = 1, 1
			switch {
			case ry2 < 0 && c < lane:
				g.f[c] = -1
			case ry2 > 0 && c > lane:
				g.f[c] = 0.5
			}
		}
		return g
	}
	for _, ry2 := range []float32{-1, 1} {
		for lane := range Lanes {
			for d := 0; d <= h; d++ {
				g := line(lane, d, ry2)
				for kk := 0; kk <= min(d, h-1); kk++ {
					for col := range Lanes {
						v := (g.yb[col] + ry2*float32(kk)) * g.f[col]
						border := !(v >= 0 && v < rw-1 && rw-1-v >= 0 && rw-1-v < rw-1)
						if border != (kk == d && col == lane) {
							t.Fatalf("test geometry: lane %d depth %d border=%v, want the first border in lane %d at depth %d", col, kk, border, lane, d)
						}
					}
				}
				if got := consumed(t, g, proj, rw, h, ry2, 0, rw-1, 0); got != d {
					t.Fatalf("ry2=%v first border sample at depth %d, lane %d: consumed %d", ry2, d, lane, got)
				}
			}
		}
	}
	g := line(3, h, 1)
	g.f[3] = float32(math.NaN())
	if got := consumed(t, g, proj, rw, h, 1, 0, rw-1, 0); got != 0 {
		t.Fatalf("NaN lane: consumed %d depths, want 0", got)
	}

	checked := 0
	for _, c := range accumColumnsCases(t) {
		var g lanes
		if c.rw < 2 || !columnLanesAVX2(&g, &c.r, float32(c.i), float32(c.rh-1), c.j0, c.n, c.rw) {
			continue
		}
		want, _ := c.firstBorder()
		if got := consumed(t, &g, c.proj, c.rw, c.h, c.r[1][2], c.r[1][3], c.vm1, c.k0); got != want {
			t.Fatalf("rw=%d rh=%d n=%d h=%d: consumed %d depths, first border at %d", c.rw, c.rh, c.n, c.h, got, want)
		}
		checked++
	}
	if checked < 1000 {
		t.Fatalf("only %d corpus tile rows have all u interior", checked)
	}
}

// TestAccumColumnsWindowParity asserts that AccumColumnsWindow's
// volume-line-order accumulator holds, bit for bit, what AccumColumnsRef's
// depth-major one holds, on the parity corpus and on every tier: the
// reference, the portable loop, and (where the host has it) the window tier.
func TestAccumColumnsWindowParity(t *testing.T) {
	cases := accumColumnsCases(t)
	for _, tier := range []struct {
		name        string
		ref, avx512 bool
	}{{"ref", true, false}, {"go", false, false}, {"avx512", false, true}} {
		t.Run(tier.name, func(t *testing.T) {
			if tier.avx512 && !hasAVX512() {
				t.Skip("CPU or OS without AVX-512")
			}
			defer SetAVX2(tier.avx512)()
			defer SetAVX512(tier.avx512)()
			if tier.ref {
				defer UseRef()()
			}
			for n, c := range cases {
				ref := append([]float32(nil), c.acc...)
				c.call(ref, AccumColumnsRef)
				win := make([]float32, len(c.acc))
				for kk := 0; kk < 2*c.h; kk++ {
					for lane := range Lanes {
						win[WindowAt(c.h, lane, kk)] = c.acc[kk*Lanes+lane]
					}
				}
				c.call(win, func(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32) {
					AccumColumnsWindow(acc, 0, proj, rw, rh, r, i, 1, j0, n, k0, h, vm1)
				})
				for kk := 0; kk < 2*c.h; kk++ {
					for lane := range c.n {
						if want, got := ref[kk*Lanes+lane], win[WindowAt(c.h, lane, kk)]; !eqBits(want, got) {
							t.Fatalf("case %d rw=%d rh=%d n=%d h=%d k0=%d r=%v: depth %d lane %d: ref=%v window=%v",
								n, c.rw, c.rh, c.n, c.h, c.k0, c.r, kk, lane, want, got)
						}
					}
				}
			}
		})
	}
}
