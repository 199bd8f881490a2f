package core

import (
	"fmt"
	"time"

	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/pkg/volume"
)

// QueueDepth is the capacity of the channels between a rank's pipeline
// threads, in AllGather rounds: how far filtering may run ahead of the
// exchange, and the exchange ahead of back-projection.
const QueueDepth = 8

// Config describes one distributed reconstruction. Inside a rank each stage
// is single-threaded (the rank grid is the parallelism), and
// back-projection accumulates backproject.DefaultBatch projections per pass.
type Config struct {
	R, C int // grid shape; Nranks = R·C, one rank per (simulated) GPU

	Geometry geometry.Params
	Window   filter.Window

	InputPrefix  string // PFS prefix holding the Np input projections
	OutputPrefix string // PFS prefix for the output slices ("" = skip store)

	AssembleVolume bool // gather the full volume at rank 0 into Result.Volume

	// Progress, when non-nil, is invoked after every completed AllGather
	// round on any rank with the cumulative count of finished rounds and
	// the total: every rank performs Np/(R·C) rounds, so the grid performs
	// Np rounds in total and done reaches exactly Np. Calls may come from
	// any rank goroutine but are serialized by the framework. Excluded
	// from serialization so Config stays hashable for caching.
	Progress func(done, total int) `json:"-"`

	// SliceWritten, when non-nil, is invoked once per output z-slice by its
	// row root during the epilogue — mid-run, long before any assembled
	// volume exists — whether or not OutputPrefix is set; with it set, the
	// slice is already on the PFS. Arguments are the global z index, the
	// slice, the cumulative count of handed-over slices and the total
	// (Geometry.Nz). The slice is a view of the row root's plane buffer,
	// valid only for the duration of the call: a hook that keeps it must
	// copy it. Each z fires exactly once, in the row root's SlabPlanes order
	// (the mirrored slab pair: the lower slab ascending, then the upper).
	// Calls come from row-root goroutines but are serialized by the
	// framework, and never occur after RunContext has returned. Excluded
	// from serialization so Config stays hashable for caching.
	SliceWritten func(z int, slice *volume.Image, written, total int) `json:"-"`
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.R < 1 || c.C < 1 {
		return fmt.Errorf("core: grid %dx%d must be at least 1x1", c.R, c.C)
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	n := c.R * c.C
	if c.Geometry.Np%n != 0 {
		return fmt.Errorf("core: Np = %d must be divisible by R·C = %d", c.Geometry.Np, n)
	}
	if c.Geometry.Nz%(2*c.R) != 0 {
		return fmt.Errorf("core: Nz = %d must be divisible by 2R = %d (mirrored slab pairs)",
			c.Geometry.Nz, 2*c.R)
	}
	if c.InputPrefix == "" {
		return fmt.Errorf("core: InputPrefix is required")
	}
	return nil
}

// StageTimes records one rank's busy time per pipeline stage plus derived
// wall times. Load/Filter/AllGather/Backproject overlap inside Compute
// (Eq. 17); Reduce and Store follow it (Eq. 19).
type StageTimes struct {
	Load        time.Duration // looking the staged projections up on the PFS
	Filter      time.Duration // decoding, cosine + ramp filtering, into the transposed block
	AllGather   time.Duration // column-group collective
	Backproject time.Duration // kernel time (reads the transposed blocks as they are)
	Compute     time.Duration // wall time of the overlapped phase
	Reduce      time.Duration // row-group volume reduction
	Store       time.Duration // laying out, storing and handing over output slices
	Total       time.Duration // end-to-end wall time
}

// Delta is the pipeline-overlap gain δ = (T_flt + T_AllGather + T_bp) /
// T_compute (Table 5); δ > 1 means the three threads genuinely overlapped.
func (s StageTimes) Delta() float64 {
	if s.Compute <= 0 {
		return 0
	}
	return float64(s.Filter+s.AllGather+s.Backproject) / float64(s.Compute)
}

// foldTimes folds one more rank's clock into the job's. The four stages that
// overlap inside Compute are busy times and fold element-wise: each is the
// worst rank's. Compute, Reduce, Store and Total are consecutive wall
// intervals of one rank and are taken together, from the row root (Row[0]
// of its Plan entry, the only rank that stores) that finished last, so that
// they still add up to Total and Store is never a non-root's zero. An
// element-wise maximum counts the skew between two ranks of a row twice —
// as the slower rank's Compute and as the faster rank's wait inside Reduce —
// which does not shrink with the job and so grows as a share of it whenever
// a stage gets faster.
func foldTimes(job, rank StageTimes, rowRoot bool) StageTimes {
	job.Load = max(job.Load, rank.Load)
	job.Filter = max(job.Filter, rank.Filter)
	job.AllGather = max(job.AllGather, rank.AllGather)
	job.Backproject = max(job.Backproject, rank.Backproject)
	if rowRoot && rank.Total > job.Total {
		job.Compute, job.Reduce, job.Store, job.Total = rank.Compute, rank.Reduce, rank.Store, rank.Total
	}
	return job
}

// RoundTrace records one AllGather round's stage timing on one rank, as
// offsets from the rank's pipeline start: when the round's own projection
// was loaded, filtered and transposed by the filtering thread, and when the
// column collective exchanged it. The per-rank slices are pre-sized before the
// pipeline starts, so recording is allocation-free in steady state; the
// service layer turns them into trace spans once, at job end.
type RoundTrace struct {
	FilterOff time.Duration // offset of the load+filter+transpose of this round's projection
	FilterDur time.Duration // load+filter+transpose busy time for that projection
	GatherOff time.Duration // offset of the round's AllGather
	GatherDur time.Duration // AllGather busy time
}

// Result is the outcome of a distributed reconstruction.
type Result struct {
	Volume    *volume.Volume // full volume at rank 0 (nil unless AssembleVolume)
	PerRank   []StageTimes
	Rounds    [][]RoundTrace // Rounds[k][r]: rank k's round r
	Max       StageTimes     // the job's clock: PerRank folded by foldTimes
	BytesSent int64          // total MPI payload bytes
}
