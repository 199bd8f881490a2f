// Package fdk composes the filtering stage and the back-projection stage
// into the complete single-node FDK reconstruction (Sec. 2.2.2): the
// reference pipeline that the distributed iFDK framework (internal/core)
// must reproduce, and the workhorse of the examples.
package fdk

import (
	"fmt"

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

// Reconstruct filters the projections and back-projects them into a new
// volume. The result always uses the i-major layout (the storage layout),
// reshaped from the k-major volume Alg. 4 accumulates into (line 22).
// The filtered projections live in pooled images that return to the engine
// after back-projection, so repeated reconstructions (the service's
// verification path) reuse one working set.
func Reconstruct(g geometry.Params, proj []*volume.Image, cfg Config) (*volume.Volume, error) {
	if len(proj) != g.Np {
		return nil, fmt.Errorf("fdk: %d projections for Np = %d", len(proj), g.Np)
	}
	flt, err := filter.Cached(g, cfg.Window)
	if err != nil {
		return nil, err
	}
	q := make([]*volume.Image, len(proj))
	for i := range q {
		q[i] = engine.Images.Acquire(g.Nu, g.Nv)
	}
	defer func() {
		for _, img := range q {
			engine.Images.Release(img)
		}
	}()
	if err := flt.Sweep(proj, q, cfg.Workers); err != nil {
		return nil, err
	}
	return BackprojectFiltered(g, q, cfg)
}

// BackprojectFiltered runs only the back-projection stage on projections
// that are already filtered. The preview tier uses this entry point because
// it filters the coarse projections itself.
func BackprojectFiltered(g geometry.Params, q []*volume.Image, cfg Config) (*volume.Volume, error) {
	task := backproject.Task{Mats: geometry.ProjectionMatrices(g), Proj: q}
	// The k-major volume is an intermediate (the result is reshaped to the
	// storage layout), so it comes from and returns to the pool.
	vol := engine.Volumes.Acquire(g.Nx, g.Ny, g.Nz, volume.KMajor)
	defer engine.Volumes.Release(vol)
	if err := backproject.Proposed(task, vol, backproject.Options{Workers: cfg.Workers}); err != nil {
		return nil, err
	}
	return vol.Reshape(volume.IMajor), nil
}
