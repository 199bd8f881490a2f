package kernels_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/pkg/volume"
)

// Benchmarks for every fast/ref kernel pair at the shapes the pipeline
// actually runs (Nu = 512 geometry: 1024-point padded row pairs, 512²
// transposed projections). The `ref` leg calls the
// exported reference, the `fast` leg the dispatching entry point; the
// kernels with an assembly tier run the legs of tiers (tier_test.go) — `ref`,
// `go`, `avx2` and `avx512` — through the dispatching entry point. These are
// working micro-benchmarks for `go test -bench`; the numbers the repo
// commits to come from benchmark/'s fft.* / filter.* / backproject.* rows.

func randF32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func randC64(rng *rand.Rand, n int) []complex64 {
	out := make([]complex64, n)
	for i := range out {
		out[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return out
}

func BenchmarkKernelsCosineWeight(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(1))
	src0, cos0, src1, cos1 := volume.Float32sToBytes(randF32(rng, n)), randF32(rng, n), volume.Float32sToBytes(randF32(rng, n)), randF32(rng, n)
	dst := make([]complex64, n)
	for _, leg := range []struct {
		name string
		fn   func(dst []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32)
	}{{"ref", kernels.CosineWeightPairLERef}, {"fast", kernels.CosineWeightPairLE}} {
		b.Run(leg.name, func(b *testing.B) {
			b.SetBytes(2 * 4 * n)
			for i := 0; i < b.N; i++ {
				leg.fn(dst, src0, cos0, src1, cos1)
			}
		})
	}
}

// BenchmarkKernelsRadix4 times one 1024-point transform — the padded row
// pair of an Nu = 512 detector — in each order.
func BenchmarkKernelsRadix4(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(3))
	tw := kernels.FFTTwiddles(n, false)
	x0 := randC64(rng, n)
	x := make([]complex64, n)
	for _, dir := range []struct {
		name string
		fn   func(x, tw []complex64)
	}{{"dif", kernels.DIF}, {"dit", kernels.DIT}} {
		for _, tier := range tiers {
			b.Run(dir.name+"/"+tier.name, func(b *testing.B) {
				defer tier.use(b)()
				b.SetBytes(8 * n)
				for i := 0; i < b.N; i++ {
					// Reset from a pristine copy: a transform grows magnitudes
					// ~n×, which would hit Inf within a few iterations.
					copy(x, x0)
					dir.fn(x, tw)
				}
			})
		}
	}
}

// BenchmarkApply512 times the whole filter (ApplyImage) on the row pairs Radix4 times
// the transforms of: one Nu = 512, Nv = 8 projection, four pairs, L = 1024.
// BenchmarkApply256 is the odd-log₂L shape of the Nu = 256 workloads
// (L = 512), whose small end runs different passes. They live here rather
// than in package filter because only this directory's tests can reach the
// tier switch.
func BenchmarkApply512(b *testing.B) { benchApply(b, 512) }
func BenchmarkApply256(b *testing.B) { benchApply(b, 256) }

func benchApply(b *testing.B, nu int) {
	g := geometry.Default(nu, 8, 90, 32, 32, 32)
	f, err := filter.New(g, filter.RamLak)
	if err != nil {
		b.Fatal(err)
	}
	e := volume.NewImage(g.Nu, g.Nv)
	for n := range e.Data {
		e.Data[n] = float32(n % 13)
	}
	block := make([]float32, g.Nu*g.Nv)
	for _, tier := range tiers {
		b.Run(tier.name, func(b *testing.B) {
			defer tier.use(b)()
			for i := 0; i < b.N; i++ {
				if err := f.ApplyImage(e, block); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFilterProjection times the pipeline's per-projection filter step
// on a whole 256² and 512² projection (L 512 and 1024, the two parities of
// the fused small end), from the staged bytes to the transposed block, on
// the portable tier, AVX2 and AVX-512: `encoded` is ApplyEncoded, `image`
// is ApplyImage from the decoded projection, which encodes it into pooled
// bytes first (the serial reference's and the preview's step). One op is
// one projection
// (ns/op is ns per projection), and every op writes a block that is not
// cache-resident, as in the pipeline, by cycling through more blocks than
// the last-level cache holds.
func BenchmarkFilterProjection(b *testing.B) {
	for _, n := range []int{256, 512} {
		g := geometry.Default(n, n, 90, 32, 32, 32)
		f, err := filter.New(g, filter.RamLak)
		if err != nil {
			b.Fatal(err)
		}
		e := volume.NewImage(g.Nu, g.Nv)
		for i := range e.Data {
			e.Data[i] = float32(i % 13)
		}
		blob := volume.ImageToBytes(e)
		blocks := make([][]float32, (64<<20)/(4*n*n))
		for i := range blocks {
			blocks[i] = make([]float32, n*n)
		}
		for _, leg := range []struct {
			name string
			run  func(block []float32) error
		}{
			{"encoded", func(block []float32) error { return f.ApplyEncoded(blob, block) }},
			{"image", func(block []float32) error { return f.ApplyImage(e, block) }},
		} {
			for _, tier := range tiers[1:] {
				b.Run(fmt.Sprintf("%d/%s/%s", n, leg.name, tier.name), func(b *testing.B) {
					defer tier.use(b)()
					for i := 0; i < b.N; i++ {
						if err := leg.run(blocks[i%len(blocks)]); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func BenchmarkKernelsRealUnpack(b *testing.B) {
	const m = 512
	rng := rand.New(rand.NewSource(4))
	w := make([]complex64, m/2+1)
	for k := range w {
		angle := -2 * math.Pi * float64(k) / float64(2*m)
		w[k] = complex(float32(math.Cos(angle)), float32(math.Sin(angle)))
	}
	spec := randC64(rng, m+1)
	for _, leg := range []struct {
		name           string
		unpack, repack func(spec, w []complex64, m int)
	}{{"ref", kernels.RealUnpackRef, kernels.RealRepackRef}, {"fast", kernels.RealUnpack, kernels.RealRepack}} {
		b.Run(leg.name, func(b *testing.B) {
			b.SetBytes(2 * 8 * m)
			for i := 0; i < b.N; i++ {
				leg.unpack(spec, w, m)
				leg.repack(spec, w, m)
			}
		})
	}
}

// BenchmarkKernelsAccumColumns times the column kernel on one tile row of
// the volume_heavy volume (128³ from 256² × 320): one op is the 8 columns
// (64, 64…71) against a batch of 32 transposed projections with their real
// matrices, down a slab of h = 2, 4, 8 (the fleet_mixed depths) or 32 (the
// volume_heavy rank's) ending at the volume's centre plane, reported per
// voxel update. Every op repeats the same tile row, so this is the kernel's
// cost on detector rows left warm by the previous op; backproject's
// BenchmarkSlabPair times the driver, tile order and row reuse included.
func BenchmarkKernelsAccumColumns(b *testing.B) {
	g := geometry.Default(256, 256, 320, 128, 128, 128)
	const batch, i, j0 = 32, 64, 64
	rng := rand.New(rand.NewSource(5))
	mats := geometry.ProjectionMatrices(g)[:batch]
	rows := make([][3][4]float32, batch)
	projs := make([][]float32, batch)
	for t := range projs {
		rows[t] = mats[t].Rows32()
		projs[t] = randF32(rng, g.Nu*g.Nv)
	}
	for _, h := range []int{2, 4, 8, 32} {
		acc := make([]float32, 2*h*kernels.Lanes)
		for _, tier := range tiers {
			b.Run(fmt.Sprintf("h=%d/%s", h, tier.name), func(b *testing.B) {
				defer tier.use(b)()
				for n := 0; n < b.N; n++ {
					for t, proj := range projs {
						kernels.AccumColumns(acc, proj, g.Nv, g.Nu, &rows[t], i, j0, kernels.Lanes, g.Nz/2-h, h, float32(g.Nv-1))
					}
				}
				updates := float64(b.N) * batch * kernels.Lanes * float64(2*h)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/updates, "ns/update")
			})
		}
	}
}
