package backproject

import (
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/engine"
	"ifdk/internal/race"
	"ifdk/pkg/volume"
)

// Back-projection with warm (dirty) engine pools must be bit-identical to a
// cold run: buffer reuse must not perturb the deterministic accumulation
// order or leak state between jobs.
func TestPooledRunsBitIdentical(t *testing.T) {
	g := smallGeom()
	task := randomTask(g, 31)
	run := func() *volume.Volume {
		vol := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
		if err := Proposed(task, vol, Options{Workers: 3}); err != nil {
			t.Fatal(err)
		}
		return vol
	}
	cold := run()
	// Dirty every pool with a different workload (other dims would use
	// other pool keys, so reuse the same geometry with junk data).
	junk := randomTask(g, 99)
	junkVol := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	if err := Proposed(junk, junkVol, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	warm := run()
	for n := range cold.Data {
		if cold.Data[n] != warm.Data[n] {
			t.Fatalf("pooled rerun differs at voxel %d: %g vs %g", n, cold.Data[n], warm.Data[n])
		}
	}
}

// Same guarantee for the slab-pair kernel used by the distributed pipeline.
func TestPooledSlabPairBitIdentical(t *testing.T) {
	g := smallGeom()
	z0, z1 := 2, g.Nz/2
	run := func(seed int64, workers int) *volume.Volume {
		tk := randomTask(g, seed)
		vol := volume.New(g.Nx, g.Ny, 2*(z1-z0), volume.KMajor)
		if err := ProposedSlabPair(tk, vol, Options{Workers: workers}, g.Nz, z0, z1); err != nil {
			t.Fatal(err)
		}
		return vol
	}
	cold := run(7, 4)
	run(55, 2) // dirty the pools
	warm := run(7, 4)
	for n := range cold.Data {
		if cold.Data[n] != warm.Data[n] {
			t.Fatalf("pooled slab rerun differs at voxel %d", n)
		}
	}
}

// Steady-state back-projection must not allocate per projection: all batch
// and worker scratch — the tile accumulator included — comes from engine
// pools, and all of it goes back. A handful of allocations per *call*
// (scheduler bookkeeping under contention) is tolerated; anything scaling
// with the projection count is a regression. Every entry point is gated:
// Proposed on a detector-layout task; ProposedSlabPair on a pre-transposed
// one, the distributed pipeline's call, at h = 5, at h = 2 (a fleet_mixed
// depth, on the gather kernel) and on fleet_mixed's 32³ from 64² at h = 16
// (the whole volume), 8 and 4 (its R = 2 and R = 4 slabs), which take the
// window kernel on an AVX-512 host; Standard; and an ablation variant's
// voxel loop. The
// slab legs run eight workers over the nine tiles of a 20×20 volume, so one
// unpooled tile accumulator per worker chunk would cost 8 allocations per
// 24 projections and fail the bound.
func TestBackprojectSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	base := engine.InUseBytes()
	g := smallGeom() // 24 projections per call
	task := randomTask(g, 3)
	tt := transposedTask(task)
	vol := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	slab := func(tt Task, g geometry.Params, z0, z1 int) func() error {
		local := volume.New(g.Nx, g.Ny, 2*(z1-z0), volume.KMajor)
		return func() error { return ProposedSlabPair(tt, local, Options{Workers: 8}, g.Nz, z0, z1) }
	}
	big := geometry.Default(64, 64, 64, 32, 32, 32)
	bigTask := transposedTask(randomTask(big, 5))
	std := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
	for _, leg := range []struct {
		name string
		np   int
		run  func() error
	}{
		{"Proposed", g.Np, func() error { return Proposed(task, vol, Options{Workers: 2}) }},
		{"Proposed, transposed", g.Np, func() error { return Proposed(tt, vol, Options{Workers: 2}) }},
		{"ProposedSlabPair, transposed, h=5", g.Np, slab(tt, g, 2, 7)},
		{"ProposedSlabPair, transposed, h=2", g.Np, slab(tt, g, 8, 10)},
		{"ProposedSlabPair, transposed, h=16", big.Np, slab(bigTask, big, 0, 16)},
		{"ProposedSlabPair, transposed, h=8", big.Np, slab(bigTask, big, 8, 16)},
		{"ProposedSlabPair, transposed, h=4", big.Np, slab(bigTask, big, 4, 8)},
		{"Standard", g.Np, func() error { return Standard(task, std, Options{Workers: 2}) }},
		{"Ablate, reuse and transpose", g.Np, func() error {
			return Ablate(task, vol, Options{Workers: 2}, Variant{Reuse: true, Transpose: true})
		}},
	} {
		for i := 0; i < 5; i++ { // warm the pools
			if err := leg.run(); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(20, func() {
			if err := leg.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.2f allocs/call", leg.name, avg)
		perProj := avg / float64(leg.np)
		if perProj > 0.25 {
			t.Errorf("%s allocates %.2f objects/call (%.3f per projection) in steady state",
				leg.name, avg, perProj)
		}
	}
	if held := engine.InUseBytes() - base; held != 0 {
		t.Errorf("back-projection left %d pooled bytes checked out", held)
	}
}
