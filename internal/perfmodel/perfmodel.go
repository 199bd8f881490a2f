// Package perfmodel implements the iFDK performance model of the paper's
// Sec. 4.2: closed-form stage times (Eqs. 8–19) parameterized by
// micro-benchmarked system throughputs (Sec. 4.2.1). The model produces the
// "potential peak" series of Fig. 5 and, combined with the discrete-event
// pipeline simulation in internal/simcluster, the full scaling study.
//
// Billing note: the service's cost-aware admission estimates each job
// independently from this model and calibrates against each job's own
// observed stage clock: every job's filter time is measured around its own
// ranks' filter calls, so no job is billed for a bystander's work, and the
// calibration EWMA absorbs any machine-speed delta from this model's THFlt
// term.
package perfmodel

import (
	"fmt"
	"math"

	"ifdk/internal/ct/geometry"
)

// MicroBench holds the measured constants of Sec. 4.2.1. Bandwidths are in
// bytes/s; THFlt and THAllGather are in projections/s (the units the
// paper's equations use); THBp is in projections/s per GPU for the
// configured sub-volume; THReduce and THTrans are bytes/s.
type MicroBench struct {
	BWLoad  float64 // PFS aggregate read bandwidth (IOR)
	BWStore float64 // PFS aggregate write bandwidth (IOR)

	THFlt       float64 // filtering throughput per node, projections/s
	THBpGUPS    float64 // back-projection kernel throughput, GUPS
	BWAllGather float64 // per-rank ring AllGather throughput, bytes/s
	THReduce    float64 // Reduce throughput per node, bytes/s
	THTrans     float64 // on-GPU volume transpose throughput, bytes/s

	BWPCIe         float64 // per-connector PCIe bandwidth (bandwidthTest)
	NPCIe          int     // PCIe connectors per node
	PCIeContention float64 // achieved fraction when GPUs share a switch (Sec. 5.3.3)

	NGpuPerNode int
}

// ABCI returns the constants of the paper's testbed (Sec. 5.1/5.3.3):
// GPFS at 28.5 GB/s sequential write, PCIe gen3 x16 at 11.9 GB/s with two
// connectors feeding four V100s (hence ~0.5 contention), dual InfiniBand
// EDR HCAs, and the stage throughputs implied by Table 5.
func ABCI() MicroBench {
	return MicroBench{
		BWLoad:         60e9,
		BWStore:        28.5e9,
		THFlt:          360,    // 2048² projections/s per node (IPP-class filtering)
		THBpGUPS:       200,    // the proposed kernel's plateau (Table 4)
		BWAllGather:    2.0e9,  // ring step throughput per rank (dual EDR / 4 ranks, fit to Table 5)
		THReduce:       2.96e9, // 8 GB in ≈2.7 s over dual EDR (Sec. 5.3.3)
		THTrans:        200e9,
		BWPCIe:         11.9e9,
		NPCIe:          2,
		PCIeContention: 0.5,
		NGpuPerNode:    4,
	}
}

// Validate reports nonsensical constants.
func (mb MicroBench) Validate() error {
	if mb.BWLoad <= 0 || mb.BWStore <= 0 || mb.THFlt <= 0 || mb.THBpGUPS <= 0 ||
		mb.BWAllGather <= 0 || mb.THReduce <= 0 || mb.BWPCIe <= 0 || mb.NPCIe <= 0 ||
		mb.NGpuPerNode <= 0 {
		return fmt.Errorf("perfmodel: all micro-benchmark constants must be positive: %+v", mb)
	}
	if mb.PCIeContention <= 0 || mb.PCIeContention > 1 {
		return fmt.Errorf("perfmodel: PCIe contention %g outside (0, 1]", mb.PCIeContention)
	}
	return nil
}

// THBpProj converts the kernel GUPS into per-GPU projections/s for a given
// sub-volume (Eq. 12's TH_bp): one projection updates every sub-volume
// voxel once.
func (mb MicroBench) THBpProj(voxelsPerSub float64) float64 {
	return mb.THBpGUPS * (1 << 30) / voxelsPerSub
}

// Times are the stage durations of Eqs. 8–19, in seconds.
type Times struct {
	Load      float64 // Eq. 8
	Flt       float64 // Eq. 9
	AllGather float64 // Eq. 10
	H2D       float64 // Eq. 11
	Bp        float64 // Eq. 12 (includes H2D)
	Trans     float64 // Eq. 13
	D2H       float64 // Eq. 14
	Reduce    float64 // Eq. 15 (zero when C = 1)
	Store     float64 // Eq. 16
	Compute   float64 // Eq. 17: max(Load, Flt, AllGather, Bp)
	Post      float64 // Eq. 18: D2H + Reduce + Store (Trans folded in)
	Runtime   float64 // Eq. 19: Compute + Post
}

// GUPS converts the modelled runtime into end-to-end GUPS (Fig. 6).
func (t Times) GUPS(pr geometry.Problem) float64 {
	return pr.GUPS(t.Runtime)
}

// Predict evaluates the closed-form model for the problem decomposed on an
// R×C grid.
func Predict(pr geometry.Problem, r, c int, mb MicroBench) (Times, error) {
	if err := mb.Validate(); err != nil {
		return Times{}, err
	}
	if r < 1 || c < 1 {
		return Times{}, fmt.Errorf("perfmodel: invalid grid %dx%d", r, c)
	}
	var t Times
	fr, fc := float64(r), float64(c)
	np := float64(pr.Np)
	inBytes := float64(pr.InputBytes())
	outBytes := float64(pr.OutputBytes())
	voxPerSub := float64(pr.Nx) * float64(pr.Ny) * float64(pr.Nz) / fr
	gpn := float64(mb.NGpuPerNode)
	pcie := mb.BWPCIe * float64(mb.NPCIe) * mb.PCIeContention

	projBytes := 4 * float64(pr.Nu) * float64(pr.Nv)

	t.Load = inBytes / mb.BWLoad            // Eq. 8
	t.Flt = np * gpn / (fc * fr * mb.THFlt) // Eq. 9
	// Eq. 10 with the ring cost made explicit: each of the Np/(C·R) rounds
	// moves R-1 projection blocks per rank (the paper's constant
	// TH_AllGather cannot reproduce Table 5's R dependence; see
	// EXPERIMENTS.md).
	t.AllGather = np / (fc * fr) * float64(r-1) * projBytes / mb.BWAllGather
	t.H2D = inBytes * gpn / (fc * pcie)           // Eq. 11
	t.Bp = t.H2D + np/(fc*mb.THBpProj(voxPerSub)) // Eq. 12
	t.Trans = outBytes / (fr * mb.THTrans)        // Eq. 13
	t.D2H = outBytes * gpn / (fr * pcie)          // Eq. 14
	if c > 1 {
		t.Reduce = outBytes / (fr * mb.THReduce) // Eq. 15
	}
	t.Store = outBytes / mb.BWStore // Eq. 16

	t.Compute = math.Max(math.Max(t.Load, t.Flt), math.Max(t.AllGather, t.Bp)) // Eq. 17
	t.Post = t.Trans + t.D2H + t.Reduce + t.Store                              // Eq. 18
	t.Runtime = t.Compute + t.Post                                             // Eq. 19
	return t, nil
}
