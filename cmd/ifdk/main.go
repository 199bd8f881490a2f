// Command ifdk runs a distributed FDK reconstruction end to end at laptop
// scale: it synthesizes cone-beam projections of a phantom, executes the
// iFDK pipeline on an in-process R×C rank grid backed by the simulated
// parallel file system, verifies the result against the serial reference,
// and writes the centre slice as a PNG.
//
// Example:
//
//	ifdk -nx 64 -np 64 -r 4 -c 2 -phantom shepplogan -o slice.png
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

func main() {
	nx := flag.Int("nx", 64, "output volume voxels per side")
	nu := flag.Int("nu", 0, "detector pixels per side (default 2·nx)")
	np := flag.Int("np", 0, "number of projections (default 2·nx)")
	r := flag.Int("r", 2, "grid rows R (sub-volume owners)")
	c := flag.Int("c", 2, "grid columns C (projection groups)")
	phantomName := flag.String("phantom", "shepplogan", "phantom: shepplogan|sphere|industrial")
	windowName := flag.String("window", "ram-lak", "ramp window: ram-lak|shepp-logan|cosine|hamming|hann")
	out := flag.String("o", "slice.png", "output PNG for the centre slice (\"\" = skip)")
	verify := flag.Bool("verify", true, "compare against the serial reference pipeline")
	flag.Parse()

	if err := run(*nx, *nu, *np, *r, *c, *phantomName, *windowName, *out, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "ifdk:", err)
		os.Exit(1)
	}
}

func run(nx, nu, np, r, c int, phantomName, windowName, out string, verify bool) error {
	if nu == 0 {
		nu = 2 * nx
	}
	if np == 0 {
		np = 2 * nx
	}
	g := geometry.Default(nu, nu, np, nx, nx, nx)
	ph, err := phantom.ByName(phantomName, g)
	if err != nil {
		return err
	}
	win, err := filter.ParseWindow(windowName)
	if err != nil {
		return err
	}

	fmt.Printf("problem: %dx%dx%d -> %dx%dx%d on a %dx%d grid (%d ranks)\n",
		g.Nu, g.Nv, g.Np, g.Nx, g.Ny, g.Nz, r, c, r*c)
	fmt.Print("generating projections... ")
	start := time.Now()
	proj := projector.AnalyticAll(ph, g, 0)
	fmt.Printf("%.2fs\n", time.Since(start).Seconds())

	store := pfs.New(pfs.Config{})
	if err := core.StageProjections(store, "in", proj); err != nil {
		return err
	}
	fmt.Print("running iFDK... ")
	start = time.Now()
	res, err := core.Run(core.Config{
		R: r, C: c,
		Geometry:       g,
		Window:         win,
		InputPrefix:    "in",
		OutputPrefix:   "out",
		AssembleVolume: true,
	}, store)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	pr := geometry.Problem{Nu: g.Nu, Nv: g.Nv, Np: g.Np, Nx: g.Nx, Ny: g.Ny, Nz: g.Nz}
	fmt.Printf("%.2fs (%.3f GUPS)\n", elapsed.Seconds(), pr.GUPS(elapsed.Seconds()))
	m := res.Max
	fmt.Printf("stages (worst rank; compute to store: the last rank to finish): load %.3fs filter %.3fs allgather %.3fs bp %.3fs "+
		"compute %.3fs reduce %.3fs store %.3fs  δ=%.2f\n",
		m.Load.Seconds(), m.Filter.Seconds(), m.AllGather.Seconds(), m.Backproject.Seconds(),
		m.Compute.Seconds(), m.Reduce.Seconds(), m.Store.Seconds(), m.Delta())

	if verify {
		serial, err := fdk.Reconstruct(g, proj, fdk.Config{Window: win})
		if err != nil {
			return err
		}
		rmse, err := volume.RelRMSE(serial, res.Volume)
		if err != nil {
			return err
		}
		fmt.Printf("verification: relative RMSE vs serial = %.2e (paper bound: 1e-5)\n", rmse)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Volume.SliceZ(g.Nz/2).WritePNG(f, 0, 0); err != nil {
			return err
		}
		fmt.Printf("centre slice written to %s\n", out)
	}
	return nil
}
