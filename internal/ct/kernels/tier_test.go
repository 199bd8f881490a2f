package kernels_test

import (
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/pkg/volume"
)

// TestBackprojectBitIdenticalAcrossTiers runs both consumers of the
// AccumLinePair seam — backproject.Proposed (fdk.Reconstruct, preview,
// verification) and backproject.ProposedSlabPair (the distributed pipeline)
// — at nx = 64 on the reference kernels, the portable fast loop and the AVX2
// tier, and requires the three volumes to agree bit for bit. It lives here
// rather than in package backproject because only this directory's tests
// can reach the unexported tier switch.
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
	const z0, z1 = 8, 24 // a slab pair off the volume edge: k0 ≠ 0
	run := func() (full, slab *volume.Volume) {
		full = volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
		if err := backproject.Proposed(task, full, backproject.Options{}); err != nil {
			t.Fatal(err)
		}
		slab = volume.New(g.Nx, g.Ny, 2*(z1-z0), volume.KMajor)
		if err := backproject.ProposedSlabPair(task, slab, backproject.Options{}, g.Nz, z0, z1); err != nil {
			t.Fatal(err)
		}
		return full, slab
	}

	refFull, refSlab := func() (full, slab *volume.Volume) {
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
			full, slab := run()
			same("Proposed", refFull, full)
			same("ProposedSlabPair", refSlab, slab)
		})
	}
}
