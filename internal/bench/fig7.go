package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/hpc/pfs"
	"ifdk/internal/perfmodel"
	"ifdk/internal/simcluster"
	"ifdk/pkg/volume"
)

// Fig7Result is the volume-reduction demo of Fig. 7: a real (scaled-down)
// iFDK run on a 4×4 grid plus the full-scale model point the paper reports
// (2048²×4096 → 2048³ on 16 GPUs at 1,134 GUPS).
type Fig7Result struct {
	// Real run (laptop scale).
	Geometry     geometry.Params
	RealGUPS     float64
	RMSEvsSerial float64
	CenterSlice  *volume.Image

	// Full-scale model point.
	ModelProblem geometry.Problem
	ModelGUPS    float64
}

// Fig7 executes the demo: a real R=4, C=4 distributed reconstruction of the
// Shepp–Logan phantom at the given scale (nx voxels per side), verified
// against the serial pipeline, plus the simulated full-scale counterpart.
func Fig7(nx int, mb perfmodel.MicroBench) (*Fig7Result, error) {
	if nx < 8 || nx%8 != 0 {
		return nil, fmt.Errorf("bench: fig7 scale %d must be a multiple of 8 (R=4 slab pairs)", nx)
	}
	g := geometry.Default(2*nx, 2*nx, 2*nx, nx, nx, nx)
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	proj := projector.AnalyticAll(ph, g, 0)
	store := pfs.New(pfs.Config{})
	if err := core.StageProjections(store, "fig7/in", proj); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := core.Run(core.Config{
		R: 4, C: 4,
		Geometry:       g,
		InputPrefix:    "fig7/in",
		OutputPrefix:   "fig7/out",
		AssembleVolume: true,
	}, store)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start).Seconds()
	serial, err := fdk.Reconstruct(g, proj, fdk.Config{})
	if err != nil {
		return nil, err
	}
	rmse, err := volume.RMSE(serial, res.Volume)
	if err != nil {
		return nil, err
	}
	s := serial.Summarize()
	scale := math.Max(math.Abs(float64(s.Min)), math.Abs(float64(s.Max)))
	if scale > 0 {
		rmse /= scale
	}
	pr := geometry.Problem{Nu: g.Nu, Nv: g.Nv, Np: g.Np, Nx: g.Nx, Ny: g.Ny, Nz: g.Nz}

	sim, err := simcluster.Simulate(simcluster.Config{Problem: TwoK(), R: 4, C: 4, MB: mb})
	if err != nil {
		return nil, err
	}
	return &Fig7Result{
		Geometry:     g,
		RealGUPS:     pr.GUPS(elapsed),
		RMSEvsSerial: rmse,
		CenterSlice:  res.Volume.SliceZ(g.Nz / 2),
		ModelProblem: TwoK(),
		ModelGUPS:    sim.GUPS,
	}, nil
}

// RenderFig7 summarizes the demo.
func RenderFig7(r *Fig7Result) string {
	var b strings.Builder
	b.WriteString("Fig 7: volume reduction on a 4x4 grid (16 ranks, MPI_Reduce per row)\n")
	fmt.Fprintf(&b, "  real run      : %dx%dx%d -> %dx%dx%d, %.3f GUPS, RMSE vs serial %.2e\n",
		r.Geometry.Nu, r.Geometry.Nv, r.Geometry.Np, r.Geometry.Nx, r.Geometry.Ny, r.Geometry.Nz,
		r.RealGUPS, r.RMSEvsSerial)
	fmt.Fprintf(&b, "  full-scale sim: %s on 16 GPUs = %.0f GUPS (paper: 1,134)\n",
		r.ModelProblem, r.ModelGUPS)
	return b.String()
}
