package kernels_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"ifdk/internal/ct/kernels"
)

// FuzzRadix4Tiers drives DIF and DIT, the two wrappers that hand slices to
// assembly, with row lengths and twiddle tables they must refuse as well as
// ones they must transform, on the portable tier and on AVX2:
//
//   - size is the row length 0…4096, or with mode bit 7 the exponent of a
//     power of two up to 4096;
//   - mode bit 0 is the direction, bit 1 picks DIT over DIF, bits 2–3 the
//     table: right, one short, one long, or the right table for twice the
//     length;
//   - contents are float32 bit patterns (NaN, ±Inf and denormals included),
//     repeated to fill the row.
//
// A call must panic on both tiers with the same message or on neither; a
// transformed row must be bit-identical across tiers (any NaN for a NaN);
// and the canaries either side of the row must survive.
func FuzzRadix4Tiers(f *testing.F) {
	const pow2, dit, short, long, other = 0x80, 0x02, 0x04, 0x08, 0x0C
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

	f.Fuzz(func(t *testing.T, size uint16, mode uint8, contents []byte) {
		if !kernels.HasAVX2() {
			t.Skip("CPU or OS without AVX2: there is one tier here, nothing to compare")
		}
		n := int(size) % 4097
		if mode&pow2 != 0 {
			n = 1 << (size % 13)
		}
		transform := kernels.DIF
		if mode&dit != 0 {
			transform = kernels.DIT
		}
		tw := tableFor(n, mode&1 != 0, mode&other)

		const pad = 64
		canary := complex(math.Float32frombits(0xCAFEF00D), math.Float32frombits(0x0DDBA11))
		row := func() []complex64 {
			backing := make([]complex64, pad+n+pad)
			for i := range backing {
				backing[i] = canary
			}
			word := func(i int) float32 {
				if len(contents) < 4 {
					return 0
				}
				return math.Float32frombits(binary.LittleEndian.Uint32(contents[4*(i%(len(contents)/4)):]))
			}
			for i := 0; i < n; i++ {
				backing[pad+i] = complex(word(2*i), word(2*i+1))
			}
			return backing
		}
		run := func(avx2 bool) (backing []complex64, panicked any) {
			defer kernels.SetAVX2(avx2)()
			backing = row()
			defer func() { panicked = recover() }()
			transform(backing[pad:pad+n:pad+n], tw)
			return backing, nil
		}
		portable, portablePanic := run(false)
		vector, vectorPanic := run(true)

		if fmt.Sprint(portablePanic) != fmt.Sprint(vectorPanic) {
			t.Fatalf("n=%d mode=%#x: go panics with %v, avx2 with %v", n, mode, portablePanic, vectorPanic)
		}
		wantPanic := n < 1 || n&(n-1) != 0 || len(tw) != len(kernels.FFTTwiddles(n, false))
		if (portablePanic != nil) != wantPanic {
			t.Fatalf("n=%d mode=%#x: panic %v, want one: %v", n, mode, portablePanic, wantPanic)
		}
		for _, backing := range [][]complex64{portable, vector} {
			for i, c := range backing {
				if (i < pad || i >= pad+n) && c != canary {
					t.Fatalf("n=%d mode=%#x: canary %d (row is [%d, %d)) overwritten with %v", n, mode, i, pad, pad+n, c)
				}
			}
		}
		sameComplexBits(t, fmt.Sprintf("n=%d mode=%#x", n, mode), portable[pad:pad+n], vector[pad:pad+n])
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
