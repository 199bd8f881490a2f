// Package fdk is the single-node FDK reconstruction (Sec. 2.2.2), the
// serial reference internal/core must reproduce. ReconstructFrom, the loop
// under it and under the service's verification and preview, runs the
// pipeline's own stages, so Reconstruct equals core.Run on a 1×1 grid.
package fdk

import (
	"cmp"
	"fmt"
	"time"

	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/engine"
	"ifdk/pkg/volume"
)

// Config controls a reconstruction. Back-projection is always the paper's
// Alg. 4 (backproject.Proposed).
type Config struct {
	Window  filter.Window // ramp apodization (default Ram-Lak)
	Workers int           // goroutines for both stages (0 = GOMAXPROCS)
}

// Times is the busy time of a reconstruction's two stages.
type Times struct {
	Filter, Backproject time.Duration
}

// Reconstruct filters the projections and back-projects them into a new
// volume: ReconstructFrom with each projection filtered by ApplyImage. The
// result always uses the i-major layout (the storage layout), reshaped from
// the k-major volume Alg. 4 accumulates into (line 22).
func Reconstruct(g geometry.Params, proj []*volume.Image, cfg Config) (*volume.Volume, error) {
	if len(proj) != g.Np {
		return nil, fmt.Errorf("fdk: %d projections for Np = %d", len(proj), g.Np)
	}
	vol, _, err := ReconstructFrom(g, func(flt *filter.Filterer, s int, block []float32) error {
		return flt.ApplyImage(proj[s], block)
	}, cfg)
	return vol, err
}

// ReconstructFrom reconstructs g's Np projections into a new i-major
// volume. fill writes projection s, filtered by flt (the cached Filterer of
// g and cfg.Window), into block, its Nu·Nv transposed layout; it runs on
// cfg.Workers workers over each batch of backproject.DefaultBatch pooled
// engine.Blocks, which are back-projected and released before the next
// batch. A batch whose fill fails ends the call with its lowest s's error.
// Steady state allocates nothing per batch.
func ReconstructFrom(g geometry.Params, fill func(flt *filter.Filterer, s int, block []float32) error, cfg Config) (*volume.Volume, Times, error) {
	var tm Times
	flt, err := filter.Cached(g, cfg.Window)
	if err != nil {
		return nil, tm, err
	}
	mats := geometry.ProjectionMatrices(g)
	vol := engine.Volumes.Acquire(g.Nx, g.Ny, g.Nz, volume.KMajor)
	defer engine.Volumes.Release(vol)
	const nb = backproject.DefaultBatch
	var (
		blks [nb]*engine.Buf[float32]
		hdrs [nb]volume.Image // Nv×Nu views of blks
		imgs [nb]*volume.Image
		errs [nb]error
		s0   int
	)
	fillBatch := func(lo, hi int) { // one closure for every batch
		for i := lo; i < hi; i++ {
			errs[i] = fill(flt, s0+i, blks[i].Data)
		}
	}
	for ; s0 < g.Np && err == nil; s0 += nb {
		n := min(nb, g.Np-s0)
		for i := range n {
			blks[i] = engine.Blocks.Acquire(g.Nu * g.Nv)
			hdrs[i] = volume.Image{W: g.Nv, H: g.Nu, Data: blks[i].Data}
			imgs[i] = &hdrs[i]
		}
		t0 := time.Now()
		engine.ParallelRange(n, cfg.Workers, fillBatch)
		t1 := time.Now()
		tm.Filter += t1.Sub(t0)
		if err = cmp.Or(errs[:n]...); err == nil {
			task := backproject.Task{Mats: mats[s0 : s0+n], Proj: imgs[:n], Transposed: true}
			err = backproject.Proposed(task, vol, backproject.Options{Workers: cfg.Workers})
			tm.Backproject += time.Since(t1)
		}
		for _, b := range blks[:n] {
			b.Release()
		}
	}
	if err != nil {
		return nil, tm, err
	}
	return vol.Reshape(volume.IMajor), tm, nil
}
