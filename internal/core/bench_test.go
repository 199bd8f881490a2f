package core

import (
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/engine"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

// BenchmarkRunShapes runs Run at the pipeline shape of each benchmark
// workload's jobs on a 2×2 grid, so that the profile behind a change to a
// pipeline kernel is taken from committed code:
//
//	go test -run '^$' -bench RunShapes/projection_heavy -cpuprofile cpu.pprof ./internal/core/
//
// The shapes (detector², projections, nx) are projection_heavy's 512², 256,
// 32; volume_heavy's 256², 320, 128; progressive_stream's full pass, 256²,
// 256, 128; and fleet_mixed's largest, 64², 96, 32. The dataset is the
// workloads' sphere, staged once per shape before the clock starts, and
// the run stores its slices and assembles the volume as a service job
// does. One op is one job. Released buffers are not poisoned while it runs
// (engine.SetPoison), which production never does either.
func BenchmarkRunShapes(b *testing.B) {
	defer engine.SetPoison(false)()
	for _, shape := range []struct {
		name       string
		nu, np, nx int
	}{
		{"projection_heavy", 512, 256, 32},
		{"volume_heavy", 256, 320, 128},
		{"progressive_stream", 256, 256, 128},
		{"fleet_mixed", 64, 96, 32},
	} {
		b.Run(shape.name, func(b *testing.B) {
			g := geometry.Default(shape.nu, shape.nu, shape.np, shape.nx, shape.nx, shape.nx)
			store := pfs.New(pfs.Config{})
			// The sphere is centred on the axis, so every view of it is the
			// same image: it is rendered once.
			img := volume.NewImage(g.Nu, g.Nv)
			projector.NewRenderer(phantom.UniformSphere(g.FOVRadius()*0.9*0.6, 1), g).Render(img, 0)
			for s := 0; s < g.Np; s++ {
				if _, err := store.WriteProjection("in", s, img); err != nil {
					b.Fatal(err)
				}
			}
			cfg := Config{R: 2, C: 2, Geometry: g, InputPrefix: "in", OutputPrefix: "out", AssembleVolume: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, store); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
