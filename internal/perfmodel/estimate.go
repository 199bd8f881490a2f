package perfmodel

import (
	"fmt"

	"ifdk/internal/core"
	"ifdk/internal/ct/geometry"
)

// Cost is a submit-time estimate of what one reconstruction job will cost
// the service: the modelled runtime (Sec. 4.2, Eqs. 8–19) plus the working
// set the job pins while in flight. It is the currency of cost-aware
// admission: the service budgets queued work in estimated seconds and
// in-flight jobs in estimated bytes instead of a bare job count.
type Cost struct {
	Times Times // per-stage model times (model seconds)

	// RunSec is Times.Runtime: the modelled end-to-end duration in model
	// seconds. The service multiplies it by a calibration factor learned
	// from observed wall-clock runtimes, so only the *relative* cost
	// between geometries needs to be right, not the absolute scale.
	RunSec float64

	InputBytes  int64 // staged projection set (lives in the PFS for the run)
	OutputBytes int64 // assembled output volume

	// WorkingSetBytes is the peak bytes the job holds across the PFS and
	// the engine buffer pools: the staged input, the per-rank slab pairs
	// (which sum to one output volume), the assembled result volume, and
	// the pipeline's in-flight projection images.
	WorkingSetBytes int64
}

// refFltPixels is the projection size (2048²) at which the paper measured
// TH_flt, which Predict treats as resolution-independent projections/s.
// Admission needs estimates that discriminate across resolutions, so the
// facade re-expresses filtering as constant PIXEL throughput: TH_flt is
// scaled by refFltPixels/(Nu·Nv) before evaluating the model. At 2048² the
// two are identical; at service-sized previews the scaled model no longer
// charges a 32² projection like a 2048² one.
const refFltPixels = 2048 * 2048

// Estimate evaluates the closed-form performance model for one service job
// described by cfg, using the paper's ABCI constants. Absolute times are
// therefore "model seconds" on the paper's testbed; admission calibrates
// them against observed runtimes (see Cost.RunSec).
func Estimate(cfg core.Config) (Cost, error) {
	mb := ABCI()
	g := cfg.Geometry
	pr := geometry.Problem{Nu: g.Nu, Nv: g.Nv, Np: g.Np, Nx: g.Nx, Ny: g.Ny, Nz: g.Nz}
	if pr.Nu > 0 && pr.Nv > 0 {
		mb.THFlt *= refFltPixels / (float64(pr.Nu) * float64(pr.Nv))
	}
	t, err := Predict(pr, cfg.R, cfg.C, mb)
	if err != nil {
		return Cost{}, err
	}
	if t.Runtime <= 0 {
		return Cost{}, fmt.Errorf("perfmodel: modelled runtime %g for %s is not positive", t.Runtime, pr)
	}
	in, out := pr.InputBytes(), pr.OutputBytes()
	projBytes := 4 * int64(pr.Nu) * int64(pr.Nv)
	// Each rank keeps up to core.QueueDepth filtered projections in flight
	// between its pipeline threads.
	scratch := int64(core.QueueDepth) * int64(cfg.R) * int64(cfg.C) * projBytes
	return Cost{
		Times:           t,
		RunSec:          t.Runtime,
		InputBytes:      in,
		OutputBytes:     out,
		WorkingSetBytes: in + 2*out + scratch,
	}, nil
}
