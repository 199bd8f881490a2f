// Package preview builds decimated preview reconstructions: the coarse tier
// of the service's coarse-to-fine ("progressive") serving mode.
//
// A preview is a full FDK reconstruction of a downsampled problem derived
// from the full-resolution geometry by one integer factor d: every d-th
// projection is kept, each kept projection is reduced to its d×d block
// means, and the volume grid drops to (Nx/d, Ny/d, Nz/d) voxels of d× the
// pitch. Counts divide and pitches multiply, so the physical field of view —
// and, because block means average symmetric pixel groups, the detector and
// volume centres — are exactly those of the full problem: a preview voxel is
// a genuine coarse sample of the same object, not a reconstruction of a
// different scanner. Keeping every d-th of Np projections also keeps the
// angular sampling exact: the i-th kept projection sits at angle
// i·2π/(Np/d), which is precisely Beta(i) of the coarse geometry.
//
// The work drops steeply with d — filtering by ~d² (rows × row length, less
// the shorter FFT), back-projection by ~d⁴ (voxels × projections) — which is
// what turns a seconds-scale job into the ~100 ms interactive tier. The
// decimation itself is two O(n) kernels loops (kernels.AccRow /
// kernels.BlockMean) over pooled scratch, so the path stays
// allocation-free in steady state like the rest of the pipeline.
//
// A preview is a pure function of the full-resolution dataset and the plan:
// it always downsamples the staged projections, never an analytic shortcut,
// so journal replay after a crash reproduces it bit-exactly.
package preview

import (
	"context"
	"fmt"
	"time"

	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/internal/engine"
	"ifdk/pkg/volume"
)

// MaxFactor is the largest decimation factor PlanFor considers. Beyond 4 the
// coarse grids of typical service-sized jobs fall under minDim and the
// preview stops resembling the object.
const MaxFactor = 4

// minDim is the smallest detector / volume side and projection count a
// coarse problem may have; below it a preview carries no usable structure.
const minDim = 8

// Plan is one preview-tier reconstruction derived from a full-resolution
// geometry: the coarse problem plus the factor connecting the two.
type Plan struct {
	Full   geometry.Params // the full-resolution problem
	Coarse geometry.Params // the decimated problem (Decimated(Full, Factor))
	Factor int             // decimation factor d ≥ 1
}

// Decimated returns the coarse geometry at factor d: counts divided,
// pitches multiplied, source-detector distances unchanged. d must divide
// Np, Nu, Nv, Nx, Ny and Nz (PlanFor guarantees this).
func Decimated(g geometry.Params, d int) geometry.Params {
	c := g
	c.Np = g.Np / d
	c.Nu, c.Nv = g.Nu/d, g.Nv/d
	c.Du, c.Dv = g.Du*float64(d), g.Dv*float64(d)
	c.Nx, c.Ny, c.Nz = g.Nx/d, g.Ny/d, g.Nz/d
	c.Dx, c.Dy, c.Dz = g.Dx*float64(d), g.Dy*float64(d), g.Dz*float64(d)
	return c
}

// PlanFor picks the preview plan for a full-resolution geometry: the largest
// factor ≤ maxFactor (0 → MaxFactor) that divides every count and keeps the
// coarse problem above minDim on every axis. Factor 1 — a serial
// full-resolution pass — is the guaranteed fallback for jobs already too
// small to decimate, so PlanFor fails only on an invalid geometry.
func PlanFor(g geometry.Params, maxFactor int) (Plan, error) {
	if err := g.Validate(); err != nil {
		return Plan{}, fmt.Errorf("preview: %w", err)
	}
	if maxFactor <= 0 || maxFactor > MaxFactor {
		maxFactor = MaxFactor
	}
	for d := maxFactor; d > 1; d-- {
		if !divides(d, g.Np, g.Nu, g.Nv, g.Nx, g.Ny, g.Nz) {
			continue
		}
		c := Decimated(g, d)
		if c.Np < minDim || c.Nu < minDim || c.Nv < minDim ||
			c.Nx < minDim || c.Ny < minDim || c.Nz < minDim {
			continue
		}
		return Plan{Full: g, Coarse: c, Factor: d}, nil
	}
	return Plan{Full: g, Coarse: g, Factor: 1}, nil
}

func divides(d int, ns ...int) bool {
	for _, n := range ns {
		if n%d != 0 {
			return false
		}
	}
	return true
}

// accPool holds the one accumulator row DecimateInto needs per in-flight
// call, shared across previews the way the filter shares its row scratch.
var accPool engine.BufPool[float32]

// DecimateInto reduces the full-resolution projection src (Nu×Nv) to its
// d×d block means in dst (Nu/d × Nv/d): each coarse pixel is the mean of
// its d×d source block, accumulated rows-first so the float32 order is
// deterministic. dst must not alias src. Steady state performs zero heap
// allocations.
func DecimateInto(dst, src *volume.Image, d int) error {
	if d < 1 {
		return fmt.Errorf("preview: decimation factor %d", d)
	}
	if dst.W*d != src.W || dst.H*d != src.H {
		return fmt.Errorf("preview: %dx%d is not %dx%d decimated by %d",
			dst.W, dst.H, src.W, src.H, d)
	}
	inv := 1 / float32(d*d)
	acc := accPool.Acquire(src.W)
	for v := 0; v < dst.H; v++ {
		clear(acc.Data)
		for k := 0; k < d; k++ {
			kernels.AccRow(acc.Data, src.Row(v*d+k))
		}
		kernels.BlockMean(dst.Row(v), acc.Data, d, inv)
	}
	acc.Release()
	return nil
}

// Timings splits one preview build into its pipeline segments (seconds).
// Load covers reading the full-resolution projections, Decimate the block
// means, Filter the coarse ramp filtering, Backproject the coarse FDK
// back-projection; Total is wall time of the whole build.
type Timings struct {
	Load, Decimate, Filter, Backproject, Total float64
}

// Options tunes one Reconstruct call. Its filter and back-projection stages
// run on GOMAXPROCS workers.
type Options struct {
	// Window is the ramp apodization, matching the full-resolution job so
	// the preview previews the same filter.
	Window filter.Window
}

// Reconstruct builds the preview volume for the plan. read fills dst (a
// pooled full-resolution Nu×Nv image) with source projection s; Reconstruct
// calls it once per kept projection (s = i·Factor), decimates each into a
// pooled coarse image, filters the coarse set, and back-projects it on the
// coarse grid. The result is a fresh i-major coarse volume the caller owns.
func (p Plan) Reconstruct(ctx context.Context, read func(dst *volume.Image, s int) error, opt Options) (*volume.Volume, Timings, error) {
	start := time.Now()
	var tm Timings
	cg := p.Coarse
	imgs := make([]*volume.Image, 0, cg.Np)
	defer func() {
		for _, img := range imgs {
			engine.Images.Release(img)
		}
	}()

	full := engine.Images.Acquire(p.Full.Nu, p.Full.Nv)
	defer engine.Images.Release(full)
	for i := 0; i < cg.Np; i++ {
		if err := ctx.Err(); err != nil {
			return nil, tm, err
		}
		t0 := time.Now()
		if err := read(full, i*p.Factor); err != nil {
			return nil, tm, fmt.Errorf("preview: projection %d: %w", i*p.Factor, err)
		}
		t1 := time.Now()
		tm.Load += t1.Sub(t0).Seconds()
		coarse := engine.Images.Acquire(cg.Nu, cg.Nv)
		imgs = append(imgs, coarse)
		if err := DecimateInto(coarse, full, p.Factor); err != nil {
			return nil, tm, err
		}
		tm.Decimate += time.Since(t1).Seconds()
	}

	t0 := time.Now()
	flt, err := filter.Cached(cg, opt.Window)
	if err != nil {
		return nil, tm, err
	}
	if err := flt.Sweep(imgs, imgs, 0); err != nil {
		return nil, tm, err
	}
	t1 := time.Now()
	tm.Filter = t1.Sub(t0).Seconds()

	vol, err := fdk.BackprojectFiltered(cg, imgs, fdk.Config{})
	if err != nil {
		return nil, tm, err
	}
	tm.Backproject = time.Since(t1).Seconds()
	tm.Total = time.Since(start).Seconds()
	return vol, tm, nil
}
