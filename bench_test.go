// Package ifdk's root benchmarks regenerate every table and figure of the
// paper at benchmark-friendly scale (see DESIGN.md's experiment index):
//
//	BenchmarkTable4*  — back-projection kernel GUPS (Table 4, E2/E3)
//	BenchmarkTable5   — Tcompute breakdown and δ (Table 5, E9)
//	BenchmarkFig5*    — strong/weak scaling of the 4K and 8K problems (E4–E7)
//	BenchmarkFig6     — end-to-end GUPS (E8)
//	BenchmarkFig7     — real distributed reduction demo (E10)
//
// plus real-execution benchmarks of the two pipeline stages and the
// end-to-end framework. Full-size renders come from cmd/ifdk-bench.
package ifdk_test

import (
	"testing"

	"ifdk/internal/bench"
	"ifdk/internal/core"
	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/gpusim"
	"ifdk/internal/hpc/pfs"
	"ifdk/internal/perfmodel"
	"ifdk/pkg/volume"
)

func quickEst() gpusim.EstimateConfig {
	return gpusim.EstimateConfig{SampleWarps: 64, BatchSamples: 1}
}

// BenchmarkTable4 regenerates the whole kernel-performance table.
func BenchmarkTable4(b *testing.B) {
	dev := gpusim.TeslaV100()
	for i := 0; i < b.N; i++ {
		rows := bench.Table4(dev, quickEst())
		if len(rows) != 15 {
			b.Fatal("table 4 incomplete")
		}
	}
}

// BenchmarkTable4Kernels estimates each kernel on the paper's flagship
// low-α problem (1k³ → 1k³), reporting modelled GUPS.
func BenchmarkTable4Kernels(b *testing.B) {
	dev := gpusim.TeslaV100()
	pr := geometry.Problem{Nu: 1024, Nv: 1024, Np: 1024, Nx: 1024, Ny: 1024, Nz: 1024}
	for _, k := range gpusim.Kernels {
		b.Run(k.String(), func(b *testing.B) {
			var gups float64
			for i := 0; i < b.N; i++ {
				rep := gpusim.Estimate(dev, pr, k, quickEst())
				gups = rep.GUPS
			}
			b.ReportMetric(gups, "modelGUPS")
		})
	}
}

func BenchmarkTable5(b *testing.B) {
	mb := perfmodel.ABCI()
	for i := 0; i < b.N; i++ {
		points, err := bench.Table5(mb)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 8 {
			b.Fatal("table 5 incomplete")
		}
	}
}

func benchFig5(b *testing.B, cfg bench.Fig5Config) {
	mb := perfmodel.ABCI()
	var last float64
	for i := 0; i < b.N; i++ {
		points, err := bench.RunFig5(cfg, mb)
		if err != nil {
			b.Fatal(err)
		}
		last = points[len(points)-1].Res.SimTotal
	}
	b.ReportMetric(last, "sec@maxGPUs")
}

func BenchmarkFig5aStrong4K(b *testing.B) { benchFig5(b, bench.Fig5a()) }
func BenchmarkFig5bStrong8K(b *testing.B) { benchFig5(b, bench.Fig5b()) }
func BenchmarkFig5cWeak4K(b *testing.B)   { benchFig5(b, bench.Fig5c()) }
func BenchmarkFig5dWeak8K(b *testing.B)   { benchFig5(b, bench.Fig5d()) }

func BenchmarkFig6(b *testing.B) {
	mb := perfmodel.ABCI()
	var gups float64
	for i := 0; i < b.N; i++ {
		series, err := bench.Fig6(mb)
		if err != nil {
			b.Fatal(err)
		}
		pts := series[1].Points
		gups = pts[len(pts)-1].Res.GUPS
	}
	b.ReportMetric(gups, "4K-GUPS@2048")
}

// BenchmarkFig7 runs the real 16-rank distributed reduction demo.
func BenchmarkFig7(b *testing.B) {
	mb := perfmodel.ABCI()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig7(16, mb)
		if err != nil {
			b.Fatal(err)
		}
		if res.RMSEvsSerial > 1e-5 {
			b.Fatalf("fig7 verification failed: %g", res.RMSEvsSerial)
		}
	}
}

// --- Real-execution stage benchmarks (the micro-benchmarks of E13).

// BenchmarkFilteringStage measures TH_flt on this CPU through the pooled
// hot path: allocs/op must be zero in steady state.
func BenchmarkFilteringStage(b *testing.B) {
	g := geometry.Default(512, 16, 90, 32, 32, 32)
	flt, err := filter.New(g, filter.RamLak)
	if err != nil {
		b.Fatal(err)
	}
	img := volume.NewImage(g.Nu, g.Nv)
	q := volume.NewImage(g.Nu, g.Nv)
	for n := range img.Data {
		img.Data[n] = float32(n % 101)
	}
	if err := flt.ApplyInto(img, q); err != nil { // warm the scratch pools
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * g.Nu * g.Nv))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := flt.ApplyInto(img, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterRFFT compares the float32 half-spectrum hot path against
// the complex128 reference on one projection of the default geometry.
func BenchmarkFilterRFFT(b *testing.B) {
	g := geometry.Default(512, 16, 90, 32, 32, 32)
	flt, err := filter.New(g, filter.RamLak)
	if err != nil {
		b.Fatal(err)
	}
	img := volume.NewImage(g.Nu, g.Nv)
	q := volume.NewImage(g.Nu, g.Nv)
	for n := range img.Data {
		img.Data[n] = float32(n % 101)
	}
	b.Run("complex128", func(b *testing.B) {
		b.SetBytes(int64(4 * g.Nu * g.Nv))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := flt.ApplyRef(img); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rfft", func(b *testing.B) {
		b.SetBytes(int64(4 * g.Nu * g.Nv))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := flt.ApplyInto(img, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBackprojection compares the standard and proposed algorithms on
// the real CPU (the E3 speedup, CPU edition).
func BenchmarkBackprojection(b *testing.B) {
	g := geometry.Default(128, 128, 32, 64, 64, 64)
	task := backproject.Task{Mats: geometry.ProjectionMatrices(g)}
	for s := 0; s < g.Np; s++ {
		img := volume.NewImage(g.Nu, g.Nv)
		for n := range img.Data {
			img.Data[n] = float32((n*7 + s) % 31)
		}
		task.Proj = append(task.Proj, img)
	}
	updates := float64(g.Nx) * float64(g.Ny) * float64(g.Nz) * float64(g.Np)
	b.Run("standard", func(b *testing.B) {
		vol := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := backproject.Standard(task, vol, backproject.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(updates/1e6/b.Elapsed().Seconds()*float64(b.N), "MUPS")
	})
	b.Run("proposed", func(b *testing.B) {
		vol := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := backproject.Proposed(task, vol, backproject.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(updates/1e6/b.Elapsed().Seconds()*float64(b.N), "MUPS")
	})
}

// BenchmarkEndToEnd runs the complete framework (projection staging
// excluded) on a 2x2 grid.
func BenchmarkEndToEnd(b *testing.B) {
	g := geometry.Default(64, 64, 32, 32, 32, 32)
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	proj := projector.AnalyticAll(ph, g, 0)
	store := pfs.New(pfs.Config{})
	if err := core.StageProjections(store, "in", proj); err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{R: 2, C: 2, Geometry: g, InputPrefix: "in"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg, store); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialReference is the single-node pipeline for comparison.
func BenchmarkSerialReference(b *testing.B) {
	g := geometry.Default(64, 64, 32, 32, 32, 32)
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	proj := projector.AnalyticAll(ph, g, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fdk.Reconstruct(g, proj, fdk.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
