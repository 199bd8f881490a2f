package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

// testSetup stages a small analytic dataset and returns its geometry,
// the store and the serial reference reconstruction.
func testSetup(t *testing.T) (geometry.Params, *pfs.PFS, *volume.Volume) {
	t.Helper()
	return setupGeom(t, geometry.Default(48, 48, 16, 16, 16, 16))
}

// setupGeom is testSetup for a given geometry.
func setupGeom(t *testing.T, g geometry.Params) (geometry.Params, *pfs.PFS, *volume.Volume) {
	t.Helper()
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	proj := projector.AnalyticAll(ph, g, 0)
	store := pfs.New(pfs.Config{})
	if err := StageProjections(store, "in", proj); err != nil {
		t.Fatal(err)
	}
	ref, err := fdk.Reconstruct(g, proj, fdk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g, store, ref
}

func relVolRMSE(t *testing.T, a, b *volume.Volume) float64 {
	t.Helper()
	r, err := volume.RMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := a.Summarize()
	scale := math.Max(math.Abs(float64(s.Min)), math.Abs(float64(s.Max)))
	if scale == 0 {
		return r
	}
	return r / scale
}

// E10/E11: the distributed framework must reproduce the serial pipeline for
// every grid shape (within float reassociation tolerance), on a square
// detector and a non-square one — the producer hands column peers
// transposed Nv×Nu blocks, and only Nu ≠ Nv shows a W/H swap in that
// hand-off.
func TestDistributedMatchesSerial(t *testing.T) {
	for _, det := range [][2]int{{48, 48}, {40, 24}} {
		g, store, ref := setupGeom(t, geometry.Default(det[0], det[1], 16, 16, 16, 16))
		for _, grid := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2}, {2, 4}} {
			cfg := Config{
				R: grid[0], C: grid[1],
				Geometry:       g,
				InputPrefix:    "in",
				AssembleVolume: true,
			}
			res, err := Run(cfg, store)
			if err != nil {
				t.Fatalf("detector %v grid %v: %v", det, grid, err)
			}
			if res.Volume == nil {
				t.Fatalf("detector %v grid %v: no assembled volume", det, grid)
			}
			if r := relVolRMSE(t, ref, res.Volume); r > 1e-5 {
				t.Errorf("detector %v grid %v: relative RMSE vs serial = %g, want < 1e-5", det, grid, r)
			}
		}
	}
}

func TestOutputSlicesStored(t *testing.T) {
	g, store, _ := testSetup(t)
	cfg := Config{
		R: 2, C: 2,
		Geometry:       g,
		InputPrefix:    "in",
		OutputPrefix:   "out",
		AssembleVolume: true,
	}
	res, err := Run(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	slices := store.List("out/")
	if len(slices) != g.Nz {
		t.Fatalf("stored %d slices, want %d", len(slices), g.Nz)
	}
	back, err := LoadVolume(store, "out", g.Nx, g.Ny, g.Nz)
	if err != nil {
		t.Fatal(err)
	}
	if r := relVolRMSE(t, res.Volume, back); r > 1e-7 {
		t.Errorf("stored volume differs from assembled: %g", r)
	}
}

func TestTimingsPopulated(t *testing.T) {
	g, store, _ := testSetup(t)
	cfg := Config{R: 2, C: 2, Geometry: g, InputPrefix: "in", OutputPrefix: "out"}
	res, err := Run(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRank) != 4 {
		t.Fatalf("per-rank times: %d", len(res.PerRank))
	}
	m := res.Max
	if m.Filter <= 0 || m.Backproject <= 0 || m.Compute <= 0 || m.Total <= 0 {
		t.Errorf("stage times not populated: %+v", m)
	}
	if m.Total < m.Compute {
		t.Error("total < compute")
	}
	if m.Store <= 0 {
		t.Error("store time missing despite OutputPrefix")
	}
	if d := m.Delta(); d <= 0 {
		t.Errorf("delta = %g", d)
	}
	if res.BytesSent <= 0 {
		t.Error("BytesSent not recorded")
	}
	// The wall intervals are one rank's, so they cannot exceed its total
	// however the ranks of a row were skewed.
	if gap := m.Total - m.Compute - m.Reduce - m.Store; gap < 0 {
		t.Errorf("compute %v + reduce %v + store %v exceed total %v by %v", m.Compute, m.Reduce, m.Store, m.Total, -gap)
	}
}

// A row root that finishes its share early waits for its peer inside
// Reduce. The job's clock must count that skew once: busy stages from the
// worst rank, the wall intervals together from the row root that finished
// last — even when a peer, which stores nothing, finished later still.
func TestFoldTimesAddsUp(t *testing.T) {
	const ms = time.Millisecond
	root := StageTimes{Filter: 90 * ms, Backproject: 200 * ms, Compute: 400 * ms, Reduce: 35 * ms, Store: 10 * ms, Total: 445 * ms}
	for _, peer := range []StageTimes{
		{Filter: 120 * ms, Backproject: 180 * ms, Compute: 430 * ms, Reduce: 2 * ms, Total: 432 * ms},
		{Filter: 120 * ms, Backproject: 180 * ms, Compute: 450 * ms, Reduce: 2 * ms, Total: 452 * ms},
	} {
		type rank struct {
			t    StageTimes
			root bool
		}
		for _, order := range [][]rank{{{root, true}, {peer, false}}, {{peer, false}, {root, true}}} {
			var job StageTimes
			for _, r := range order {
				job = foldTimes(job, r.t, r.root)
			}
			want := StageTimes{Filter: 120 * ms, Backproject: 200 * ms, Compute: 400 * ms, Reduce: 35 * ms, Store: 10 * ms, Total: 445 * ms}
			if job != want {
				t.Errorf("peer total %v: folded clock %+v, want %+v", peer.Total, job, want)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := geometry.Default(32, 32, 8, 8, 8, 8)
	good := Config{R: 2, C: 2, Geometry: g, InputPrefix: "in"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{R: 0, C: 1, Geometry: g, InputPrefix: "in"},
		{R: 2, C: 3, Geometry: g, InputPrefix: "in"},                                   // Np=8 not divisible by 6
		{R: 8, C: 1, Geometry: g, InputPrefix: "in"},                                   // Nz=8 not divisible by 16
		{R: 1, C: 1, Geometry: g},                                                      // missing input
		{R: 1, C: 1, Geometry: geometry.Params{}, InputPrefix: "in"},                   // bad geometry
		{R: 1, C: 3, Geometry: geometry.Default(32, 32, 8, 8, 8, 8), InputPrefix: "x"}, // Np%3
	}
	for n, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", n, cfg)
		}
	}
}

func TestMissingInputFails(t *testing.T) {
	g := geometry.Default(32, 32, 8, 8, 8, 8)
	store := pfs.New(pfs.Config{})
	cfg := Config{R: 2, C: 2, Geometry: g, InputPrefix: "absent"}
	if _, err := Run(cfg, store); err == nil {
		t.Error("missing input should fail")
	} else if !strings.Contains(err.Error(), "no object") {
		t.Logf("error (ok): %v", err)
	}
}

func TestDecompositionHelpers(t *testing.T) {
	// Fig. 3a: R=8, C=4, 32 ranks; rank 9 is row 1, column 1.
	if RankRow(9, 8) != 1 || RankCol(9, 8) != 1 {
		t.Error("rank 9 should be (row 1, col 1)")
	}
	if RankID(1, 1, 8) != 9 {
		t.Error("RankID inverse broken")
	}
	lo, hi := ColProjRange(1, 1024, 4)
	if lo != 256 || hi != 512 {
		t.Errorf("column 1 range [%d,%d)", lo, hi)
	}
	lo, hi = RankProjRange(2, 1, 1024, 8, 4)
	if lo != 256+2*32 || hi != 256+3*32 {
		t.Errorf("rank range [%d,%d)", lo, hi)
	}
	z0, z1 := RowSlab(3, 4096, 32)
	if z0 != 3*64 || z1 != 4*64 {
		t.Errorf("slab [%d,%d)", z0, z1)
	}
}

// Projection coverage: every projection is loaded by exactly one rank, and
// each column covers its share exactly.
func TestProjectionPartition(t *testing.T) {
	const R, C, Np = 4, 3, 120
	seen := make([]int, Np)
	for col := 0; col < C; col++ {
		for row := 0; row < R; row++ {
			lo, hi := RankProjRange(row, col, Np, R, C)
			for s := lo; s < hi; s++ {
				seen[s]++
			}
		}
	}
	for s, n := range seen {
		if n != 1 {
			t.Fatalf("projection %d loaded %d times", s, n)
		}
	}
}

// Slab coverage: row slab pairs tile [0, Nz) exactly once.
func TestSlabPartition(t *testing.T) {
	const R, Nz = 8, 64
	seen := make([]int, Nz)
	for row := 0; row < R; row++ {
		z0, z1 := RowSlab(row, Nz, R)
		for _, k := range []int{z0, z1 - 1} {
			_ = k
		}
		for k := z0; k < z1; k++ {
			seen[k]++
			seen[Nz-1-k]++
		}
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("plane %d covered %d times", k, n)
		}
	}
}

func TestStageProjectionsValidation(t *testing.T) {
	store := pfs.New(pfs.Config{})
	if err := StageProjections(store, "", nil); err == nil {
		t.Error("empty prefix accepted")
	}
	if err := StageProjections(store, "p", []*volume.Image{nil}); err == nil {
		t.Error("nil projection accepted")
	}
}

// Every run populates per-rank, per-round filter/AllGather timings without
// perturbing the reconstruction.
func TestCollectRounds(t *testing.T) {
	g, store, ref := testSetup(t)
	cfg := Config{
		R: 2, C: 2,
		Geometry:       g,
		InputPrefix:    "in",
		AssembleVolume: true,
	}
	res, err := Run(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if r := relVolRMSE(t, ref, res.Volume); r > 1e-5 {
		t.Errorf("relative RMSE vs serial = %g, want < 1e-5", r)
	}
	quota := g.Np / (cfg.R * cfg.C)
	if len(res.Rounds) != cfg.R*cfg.C {
		t.Fatalf("Rounds covers %d ranks, want %d", len(res.Rounds), cfg.R*cfg.C)
	}
	for rank, rounds := range res.Rounds {
		if len(rounds) != quota {
			t.Fatalf("rank %d: %d rounds, want quota %d", rank, len(rounds), quota)
		}
		for i, rt := range rounds {
			if rt.Round != i {
				t.Errorf("rank %d round %d: Round = %d", rank, i, rt.Round)
			}
			if rt.FilterDur <= 0 || rt.GatherDur <= 0 {
				t.Errorf("rank %d round %d: zero durations %+v", rank, i, rt)
			}
			if rt.GatherOff < rt.FilterOff {
				t.Errorf("rank %d round %d: AllGather at %v before its filter at %v",
					rank, i, rt.GatherOff, rt.FilterOff)
			}
		}
	}
}
