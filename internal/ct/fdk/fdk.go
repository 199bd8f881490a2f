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

// Algorithm selects the back-projection implementation.
type Algorithm int

const (
	// AlgProposed is the paper's Alg. 4 (default).
	AlgProposed Algorithm = iota
	// AlgStandard is the RTK-style Alg. 2 baseline.
	AlgStandard
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgProposed:
		return "proposed"
	case AlgStandard:
		return "standard"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config controls a reconstruction.
type Config struct {
	Window    filter.Window // ramp apodization (default Ram-Lak)
	Algorithm Algorithm     // back-projection algorithm (default proposed)
	Workers   int           // goroutines for both stages (0 = GOMAXPROCS)
	Batch     int           // projections per back-projection pass (0 = 32)
}

// Reconstruct filters the projections and back-projects them into a new
// volume. The result always uses the i-major layout (the storage layout),
// reshaped from k-major when the proposed algorithm ran (Alg. 4 line 22).
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
	q, err := flt.ApplyBatch(proj, cfg.Workers)
	if err != nil {
		return nil, err
	}
	vol, err := BackprojectFiltered(g, q, cfg)
	for _, img := range q {
		engine.Images.Release(img)
	}
	return vol, err
}

// BackprojectFiltered runs only the back-projection stage on projections
// that are already filtered. The distributed pipeline uses this entry point
// because filtering happened on another rank's CPU.
func BackprojectFiltered(g geometry.Params, q []*volume.Image, cfg Config) (*volume.Volume, error) {
	task := backproject.Task{Mats: geometry.ProjectionMatrices(g), Proj: q}
	opt := backproject.Options{Workers: cfg.Workers, Batch: cfg.Batch}
	switch cfg.Algorithm {
	case AlgStandard:
		vol := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
		if err := backproject.Standard(task, vol, opt); err != nil {
			return nil, err
		}
		return vol, nil
	case AlgProposed:
		// The k-major volume is an intermediate (the result is reshaped to
		// the storage layout), so it comes from and returns to the pool.
		vol := engine.Volumes.Acquire(g.Nx, g.Ny, g.Nz, volume.KMajor)
		if err := backproject.Proposed(task, vol, opt); err != nil {
			engine.Volumes.Release(vol)
			return nil, err
		}
		out := vol.Reshape(volume.IMajor)
		engine.Volumes.Release(vol)
		return out, nil
	default:
		return nil, fmt.Errorf("fdk: unknown algorithm %v", cfg.Algorithm)
	}
}
