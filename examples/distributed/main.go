// Distributed example: run the full iFDK framework — the 2-D rank grid,
// per-rank three-thread pipelines, column AllGather and row Reduce of
// Figs. 3 and 4 — on an in-process cluster, and print the per-rank stage
// breakdown that corresponds to the paper's Fig. 4c trace.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

func main() {
	// An R=2 × C=4 grid: 8 ranks, like one ABCI node pair. Rows own
	// mirrored Z-slab pairs; columns partition the 64 projections.
	const R, C = 2, 4
	g := geometry.Default(96, 96, 64, 48, 48, 48)
	fmt.Printf("iFDK on a %dx%d in-process grid: %dx%dx%d -> %dx%dx%d\n",
		R, C, g.Nu, g.Nv, g.Np, g.Nx, g.Ny, g.Nz)

	// Stage the dataset on the simulated parallel file system.
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	proj := projector.AnalyticAll(ph, g, 0)
	store := pfs.New(pfs.ABCIConfig())
	if err := core.StageProjections(store, "scan01", proj); err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	res, err := core.Run(core.Config{
		R: R, C: C,
		Geometry:       g,
		InputPrefix:    "scan01",
		OutputPrefix:   "recon01",
		AssembleVolume: true,
	}, store)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	// Per-rank trace (the Fig. 4c analog).
	fmt.Println("\nper-rank pipeline breakdown (seconds):")
	fmt.Printf("%5s %5s %5s | %6s %6s %6s %6s | %7s %6s %6s | %5s\n",
		"rank", "row", "col", "load", "filt", "gather", "bp", "compute", "reduce", "store", "delta")
	for rank, t := range res.PerRank {
		fmt.Printf("%5d %5d %5d | %6.3f %6.3f %6.3f %6.3f | %7.3f %6.3f %6.3f | %5.2f\n",
			rank, core.RankRow(rank, R), core.RankCol(rank, R),
			t.Load.Seconds(), t.Filter.Seconds(), t.AllGather.Seconds(), t.Backproject.Seconds(),
			t.Compute.Seconds(), t.Reduce.Seconds(), t.Store.Seconds(), t.Delta())
	}
	fmt.Printf("\nwall time %.2fs, MPI traffic %.1f MiB, pipeline gain δ (max rank) %.2f\n",
		wall.Seconds(), float64(res.BytesSent)/(1<<20), res.Max.Delta())

	// Verify against the serial reference (the paper's RMSE < 1e-5 check).
	serial, err := fdk.Reconstruct(g, proj, fdk.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rmse, err := volume.RMSE(serial, res.Volume)
	if err != nil {
		log.Fatal(err)
	}
	s := serial.Summarize()
	scale := math.Max(math.Abs(float64(s.Min)), math.Abs(float64(s.Max)))
	fmt.Printf("relative RMSE vs serial pipeline: %.2e (bound 1e-5)\n", rmse/scale)

	// The output also sits on the PFS as Nz slices, as in Sec. 4.1.3.
	fmt.Printf("PFS now holds %d output slices under recon01/\n", len(store.List("recon01/")))
}
