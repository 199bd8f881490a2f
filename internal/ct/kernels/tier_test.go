package kernels_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/pkg/volume"
)

// TestBackprojectBitIdenticalAcrossTiers runs the one Alg. 4 driver behind
// the AccumLinePair seam through all three of its callers' shapes — a whole
// even volume and a whole odd one through backproject.Proposed
// (fdk.Reconstruct, preview, verification; the odd one adds the unpaired
// centre plane) and an off-edge slab pair through
// backproject.ProposedSlabPair (the distributed pipeline) — at nx = 64 on
// the reference kernels, the portable fast loop and the AVX2 tier, and
// requires the three tiers to agree bit for bit. It lives here rather than
// in package backproject because only this directory's tests can reach the
// unexported tier switch.
func TestBackprojectBitIdenticalAcrossTiers(t *testing.T) {
	// 40 projections: one full batch of 32 and a short one. The volume's
	// top and bottom planes project past the detector for near-source
	// columns, so lines mix interior blocks with border lanes.
	g := geometry.Default(96, 96, 40, 64, 64, 64)
	rng := rand.New(rand.NewSource(14))
	task := backproject.Task{Mats: geometry.ProjectionMatrices(g)}
	for range task.Mats {
		img := volume.NewImage(g.Nu, g.Nv)
		for n := range img.Data {
			img.Data[n] = rng.Float32()
		}
		task.Proj = append(task.Proj, img)
	}
	odd := g
	odd.Nz = 15
	oddTask := backproject.Task{Mats: geometry.ProjectionMatrices(odd), Proj: task.Proj}
	const z0, z1 = 8, 24 // a slab pair off the volume edge: k0 ≠ 0
	run := func() (full, oddFull, slab *volume.Volume) {
		full = volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
		if err := backproject.Proposed(task, full, backproject.Options{}); err != nil {
			t.Fatal(err)
		}
		oddFull = volume.New(odd.Nx, odd.Ny, odd.Nz, volume.KMajor)
		if err := backproject.Proposed(oddTask, oddFull, backproject.Options{}); err != nil {
			t.Fatal(err)
		}
		slab = volume.New(g.Nx, g.Ny, 2*(z1-z0), volume.KMajor)
		if err := backproject.ProposedSlabPair(task, slab, backproject.Options{}, g.Nz, z0, z1); err != nil {
			t.Fatal(err)
		}
		return full, oddFull, slab
	}

	refFull, refOdd, refSlab := func() (full, oddFull, slab *volume.Volume) {
		defer kernels.UseRef()()
		return run()
	}()

	same := func(name string, want, got *volume.Volume) {
		t.Helper()
		for n := range want.Data {
			if math.Float32bits(want.Data[n]) != math.Float32bits(got.Data[n]) {
				t.Fatalf("%s: voxel %d = %v, reference kernels give %v", name, n, got.Data[n], want.Data[n])
			}
		}
	}
	for _, tier := range []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}} {
		t.Run(tier.name, func(t *testing.T) {
			if tier.avx2 && !kernels.HasAVX2() {
				t.Skip("CPU or OS without AVX2")
			}
			defer kernels.SetAVX2(tier.avx2)()
			full, oddFull, slab := run()
			same("Proposed", refFull, full)
			same("Proposed, odd Nz", refOdd, oddFull)
			same("ProposedSlabPair", refSlab, slab)
		})
	}
}

// onTier runs fn with the AVX2 tier switched on or off.
func onTier(avx2 bool, fn func()) {
	defer kernels.SetAVX2(avx2)()
	fn()
}

// sameComplexBits reports the first element at which two rows differ other
// than by which NaN they hold.
func sameComplexBits(t *testing.T, name string, want, got []complex64) {
	t.Helper()
	same := func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
	}
	for i := range want {
		if !same(real(want[i]), real(got[i])) || !same(imag(want[i]), imag(got[i])) {
			t.Fatalf("%s: element %d = %v on avx2, %v on go", name, i, got[i], want[i])
		}
	}
}

// TestRadix4BitIdenticalAcrossTiers runs DIF and DIT, forward and inverse,
// at every power of two up to 4096 on the portable passes and on the AVX2
// tier and requires identical bits: the assembly performs the portable
// loop's float32 operations in its order, so a fleet of mixed CPUs still
// re-executes a job bit for bit. Trials 7–9 carry a NaN or ±Inf, which must
// poison the same lanes.
func TestRadix4BitIdenticalAcrossTiers(t *testing.T) {
	if !kernels.HasAVX2() {
		t.Skip("CPU or OS without AVX2: only the portable tier runs here")
	}
	rng := rand.New(rand.NewSource(28))
	for n := 1; n <= 4096; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			tw := kernels.FFTTwiddles(n, inverse)
			for trial := 0; trial < 10; trial++ {
				x := randC64(rng, n)
				if trial >= 7 {
					bad := [...]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[trial-7]
					x[rng.Intn(n)] = complex(bad, 1)
				}
				for _, leg := range []struct {
					name string
					fn   func(x, tw []complex64)
				}{{"dif", kernels.DIF}, {"dit", kernels.DIT}} {
					portable := append([]complex64(nil), x...)
					vector := append([]complex64(nil), x...)
					onTier(false, func() { leg.fn(portable, tw) })
					onTier(true, func() { leg.fn(vector, tw) })
					sameComplexBits(t, fmt.Sprintf("%s n=%d inverse=%v trial=%d", leg.name, n, inverse, trial), portable, vector)
				}
			}
		}
	}
}

// TestFilterBitIdenticalAcrossTiers runs the whole ramp filter — ApplyInto,
// and Sweep at three worker counts — on the portable passes and on the AVX2
// tier for every window, on padded lengths with odd log₂ (Nu 48 and 64 →
// L 128, whose small end is the radix-2 pass and its neighbour) and even
// log₂ (Nu 100 → L 256, Nu 512 → L 1024, whose small end is the pass over
// quads and its neighbour), and on an odd row count (last row paired with
// zeros). The two tiers must agree bit for bit,
// and both stay within 1e-6 of the image peak of the same filter on the
// reference kernels.
func TestFilterBitIdenticalAcrossTiers(t *testing.T) {
	if !kernels.HasAVX2() {
		t.Skip("CPU or OS without AVX2: only the portable tier runs here")
	}
	for _, nu := range []int{48, 64, 100, 512} {
		for _, nv := range []int{6, 7} {
			g := geometry.Default(nu, nv, 90, 32, 32, 32)
			rng := rand.New(rand.NewSource(int64(nu*10 + nv)))
			ins := make([]*volume.Image, 3)
			for n := range ins {
				ins[n] = volume.NewImage(g.Nu, g.Nv)
				for i := range ins[n].Data {
					ins[n].Data[i] = rng.Float32()*2 - 1
				}
			}
			for _, win := range []filter.Window{filter.RamLak, filter.SheppLogan, filter.Cosine, filter.Hamming, filter.Hann} {
				f, err := filter.New(g, win)
				if err != nil {
					t.Fatal(err)
				}
				// run filters ins[0] with ApplyInto, then all of ins with
				// Sweep at 1, 2 and 3 workers, on whatever tier is live.
				run := func() (outs []*volume.Image) {
					q := volume.NewImage(g.Nu, g.Nv)
					if err := f.ApplyInto(ins[0], q); err != nil {
						t.Fatal(err)
					}
					outs = append(outs, q)
					for workers := 1; workers <= 3; workers++ {
						swept := make([]*volume.Image, len(ins))
						for n := range swept {
							swept[n] = volume.NewImage(g.Nu, g.Nv)
						}
						if err := f.Sweep(ins, swept, workers); err != nil {
							t.Fatal(err)
						}
						outs = append(outs, swept...)
					}
					return outs
				}
				ref := func() []*volume.Image {
					defer kernels.UseRef()()
					return run()
				}()
				var portable, vector []*volume.Image
				onTier(false, func() { portable = run() })
				onTier(true, func() { vector = run() })
				for n := range ref {
					name := fmt.Sprintf("nu=%d nv=%d %v output %d", nu, nv, win, n)
					var peak float64
					for _, v := range ref[n].Data {
						peak = math.Max(peak, math.Abs(float64(v)))
					}
					for i, want := range portable[n].Data {
						if got := vector[n].Data[i]; math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%s: pixel %d = %v on avx2, %v on go", name, i, got, want)
						}
						if d := math.Abs(float64(want)-float64(ref[n].Data[i])) / peak; d > 1e-6 {
							t.Fatalf("%s: pixel %d differs from the reference kernels by %g of the peak", name, i, d)
						}
					}
				}
			}
		}
	}
}
