// Package simcluster replays the iFDK per-rank pipeline (Fig. 4) as a
// discrete-event simulation at full cluster scale. Where the paper measures
// 32–2,048 real V100 GPUs on ABCI, this package advances a virtual clock
// through the same per-round structure — load+filter, column AllGather,
// batched back-projection, then D2H, row Reduce and PFS store — using the
// micro-benchmarked stage throughputs of internal/perfmodel.
//
// Because rounds genuinely overlap in the simulation (the filter of round
// r+1 proceeds while round r back-projects), the pipeline gain δ > 1 of
// Table 5 emerges rather than being assumed, and the simulated "measured"
// series can be compared against the closed-form "potential peak" of the
// model exactly as Fig. 5 does.
package simcluster

import (
	"fmt"
	"math"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/perfmodel"
)

// Config describes one simulated run.
type Config struct {
	Problem geometry.Problem
	R, C    int
	MB      perfmodel.MicroBench
}

// overhead inflates simulated stage times relative to the ideal
// micro-benchmark rates, representing thread data exchange, buffer
// management and first-call collective costs (the paper achieves ≈76% of
// its model peak, Sec. 5.3.3).
const overhead = 1.25

// batch is the back-projection kernel's batch size, N_batch = 32
// (Listing 1).
const batch = 32

// Result combines the closed-form model with the simulated pipeline.
type Result struct {
	Problem geometry.Problem
	R, C    int
	NGpus   int

	Model perfmodel.Times // potential peak (Eqs. 8–19)

	// Simulated ("measured") series.
	SimFlt       float64 // filter busy time per rank
	SimAllGather float64 // AllGather busy time per rank
	SimBp        float64 // back-projection busy time per rank
	SimCompute   float64 // pipelined wall time of the overlapped phase
	SimD2H       float64
	SimReduce    float64
	SimStore     float64
	SimTotal     float64
	Delta        float64 // (SimFlt+SimAllGather+SimBp)/SimCompute (Table 5)
	GUPS         float64 // end-to-end, from SimTotal (Fig. 6)
}

// Simulate runs the discrete-event pipeline for the configuration.
func Simulate(cfg Config) (Result, error) {
	pr := cfg.Problem
	if cfg.R < 1 || cfg.C < 1 {
		return Result{}, fmt.Errorf("simcluster: invalid grid %dx%d", cfg.R, cfg.C)
	}
	if pr.Np%(cfg.R*cfg.C) != 0 {
		return Result{}, fmt.Errorf("simcluster: Np = %d not divisible by R·C = %d", pr.Np, cfg.R*cfg.C)
	}
	model, err := perfmodel.Predict(pr, cfg.R, cfg.C, cfg.MB)
	if err != nil {
		return Result{}, err
	}
	res := Result{Problem: pr, R: cfg.R, C: cfg.C, NGpus: cfg.R * cfg.C, Model: model}
	mb := cfg.MB

	// Per-round stage durations for one (symmetric) rank.
	quota := pr.Np / (cfg.R * cfg.C) // AllGather rounds per rank
	projPerRound := cfg.R            // projections delivered per round
	voxPerSub := float64(pr.Nx) * float64(pr.Ny) * float64(pr.Nz) / float64(cfg.R)
	projBytes := 4 * float64(pr.Nu) * float64(pr.Nv)

	// Load+filter one projection (the Filtering thread's unit of work).
	// PFS load bandwidth is shared by all loading ranks.
	nRanks := float64(cfg.R * cfg.C)
	loadOne := projBytes / (mb.BWLoad / nRanks) * overhead
	fltOne := float64(mb.NGpuPerNode) / mb.THFlt * overhead
	filterRound := loadOne + fltOne

	// One AllGather round: R ranks exchange one projection each (the
	// model's Eq. 10 total split evenly over the rounds).
	agRound := model.AllGather / float64(quota) * overhead

	// Back-projecting one projection into the sub-volume, including its
	// share of the H2D copy.
	h2dOne := projBytes * float64(mb.NGpuPerNode) /
		(mb.BWPCIe * float64(mb.NPCIe) * mb.PCIeContention) * overhead
	bpOne := 1/mb.THBpProj(voxPerSub)*overhead + h2dOne

	// --- Event simulation over rounds.
	var tFilter, tAG, tBp float64 // completion clocks per pipeline thread
	var busyFlt, busyAG, busyBp float64
	batchAcc := 0
	for r := 0; r < quota; r++ {
		// Filtering thread produces round r's own projection.
		tFilter += filterRound
		busyFlt += filterRound
		// Main thread starts the AllGather when the projection is ready
		// and the previous AllGather finished.
		start := math.Max(tFilter, tAG)
		tAG = start + agRound
		busyAG += agRound
		// The round delivers R projections to the Bp thread; the kernel
		// launches on full batches (or at the end).
		batchAcc += projPerRound
		for batchAcc >= batch {
			work := batch * bpOne
			tBp = math.Max(tBp, tAG) + work
			busyBp += work
			batchAcc -= batch
		}
	}
	if batchAcc > 0 {
		work := float64(batchAcc) * bpOne
		tBp = math.Max(tBp, tAG) + work
		busyBp += work
	}
	res.SimFlt = busyFlt
	res.SimAllGather = busyAG
	res.SimBp = busyBp
	res.SimCompute = math.Max(tBp, math.Max(tAG, tFilter))
	if res.SimCompute > 0 {
		res.Delta = (busyFlt + busyAG + busyBp) / res.SimCompute
	}

	// --- Post phase (sequential, Eq. 18/19): transpose + D2H + Reduce +
	// Store, each inflated by the overhead factor.
	res.SimD2H = (model.Trans + model.D2H) * overhead
	res.SimReduce = model.Reduce * overhead
	res.SimStore = model.Store * overhead
	res.SimTotal = res.SimCompute + res.SimD2H + res.SimReduce + res.SimStore
	res.GUPS = pr.GUPS(res.SimTotal)
	return res, nil
}
