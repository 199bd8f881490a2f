package perfmodel

// Quality-tier cost estimates: the pricing side of the service's quality
// knob (pkg/api.QualityPreview / QualityProgressive). A preview is a
// deliberately cheap admission class — it reconstructs the decimated
// problem (counts/d, pitches×d; see internal/ct/preview) from every d-th
// staged projection — so charging it the full job's modelled cost would
// starve exactly the interactive traffic the tier exists for. These
// estimates price the coarse problem on its own terms and let admission's
// runtime calibration absorb the absolute scale, as everywhere else.

import (
	"fmt"
	"math"

	"ifdk/internal/core"
	"ifdk/internal/ct/geometry"
)

// THDecim is the modelled block-mean decimation throughput in source
// pixels/s. The kernel (internal/ct/kernels AccRow/BlockMean) is a
// streaming accumulate over rows, so it runs at memory bandwidth; 4 Gpx/s
// (16 GB/s of float32 reads) is a deliberately conservative single-thread
// figure — like every constant here it only needs to rank previews
// sensibly against each other and against full jobs.
const THDecim = 4e9

// EstimatePreview prices the coarse tier of cfg's problem: the decimated
// geometry reconstructed on one rank. The Load term is corrected to what
// the preview actually reads — every factor-th projection of the FULL
// dataset at full resolution (decimation happens after the read) — and the
// block-mean arithmetic is folded into the filter stage, since both run on
// the same per-projection ingest path.
func EstimatePreview(cfg core.Config, coarse geometry.Params, factor int) (Cost, error) {
	if factor < 1 {
		return Cost{}, fmt.Errorf("perfmodel: preview factor %d < 1", factor)
	}
	mb := ABCI()
	pr := geometry.Problem{Nu: coarse.Nu, Nv: coarse.Nv, Np: coarse.Np,
		Nx: coarse.Nx, Ny: coarse.Ny, Nz: coarse.Nz}
	if pr.Nu > 0 && pr.Nv > 0 {
		mb.THFlt *= refFltPixels / (float64(pr.Nu) * float64(pr.Nv))
	}
	t, err := Predict(pr, 1, 1, mb)
	if err != nil {
		return Cost{}, err
	}

	full := cfg.Geometry
	srcPixels := float64(full.Nu) * float64(full.Nv) * float64(pr.Np)
	readBytes := 4 * int64(full.Nu) * int64(full.Nv) * int64(pr.Np)
	t.Load = float64(readBytes) / mb.BWLoad
	t.Flt += srcPixels / THDecim
	t.Compute = math.Max(math.Max(t.Load, t.Flt), math.Max(t.AllGather, t.Bp)) // Eq. 17
	t.Runtime = t.Compute + t.Post                                             // Eq. 19
	if t.Runtime <= 0 {
		return Cost{}, fmt.Errorf("perfmodel: modelled preview runtime %g for %s is not positive", t.Runtime, pr)
	}

	out := pr.OutputBytes()
	// Scratch: the pipeline's coarse images plus the one full-resolution
	// staging image the decimator reuses across reads.
	coarseProj := 4 * int64(pr.Nu) * int64(pr.Nv)
	fullProj := 4 * int64(full.Nu) * int64(full.Nv)
	scratch := int64(core.QueueDepth)*coarseProj + fullProj
	return Cost{
		Times:           t,
		RunSec:          t.Runtime,
		InputBytes:      readBytes,
		OutputBytes:     out,
		WorkingSetBytes: readBytes + 2*out + scratch,
	}, nil
}

// EstimateProgressive prices a progressive job: the full-resolution
// reconstruction plus its leading preview phase, run back to back under one
// job ID. The stage breakdown reported is the full job's (the phase that
// dominates and that calibration observes end to end); the preview's
// modelled seconds are added to RunSec, and its retained coarse volume to
// the working set. InputBytes stays the full staged dataset — the preview
// reads from the same staging, it does not stage again.
func EstimateProgressive(cfg core.Config, coarse geometry.Params, factor int) (Cost, error) {
	fc, err := Estimate(cfg)
	if err != nil {
		return Cost{}, err
	}
	pc, err := EstimatePreview(cfg, coarse, factor)
	if err != nil {
		return Cost{}, err
	}
	fc.RunSec += pc.RunSec
	fc.Times.Runtime += pc.RunSec
	fc.OutputBytes += pc.OutputBytes
	// The preview's working set minus the staged input it shares with the
	// full job (already counted once in fc).
	fc.WorkingSetBytes += pc.WorkingSetBytes - pc.InputBytes
	return fc, nil
}
