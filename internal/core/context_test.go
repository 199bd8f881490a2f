package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/engine"
	"ifdk/internal/hpc/pfs"
)

// Progress must tick monotonically up to exactly Np rounds.
func TestRunContextProgress(t *testing.T) {
	g, store, _ := testSetup(t)
	var last, calls int
	cfg := Config{
		R: 2, C: 2,
		Geometry:    g,
		InputPrefix: "in",
		Progress: func(done, total int) {
			if total != g.Np {
				t.Errorf("total = %d, want %d", total, g.Np)
			}
			if done != last+1 {
				t.Errorf("done jumped from %d to %d", last, done)
			}
			last = done
			calls++
		},
	}
	if _, err := RunContext(context.Background(), cfg, store); err != nil {
		t.Fatal(err)
	}
	if calls != g.Np || last != g.Np {
		t.Fatalf("progress reached %d/%d in %d calls, want %d", last, g.Np, calls, g.Np)
	}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (plus slack for runtime helpers) or the deadline expires.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
}

// Cancelling mid-run must tear down all pipeline goroutines and surface the
// context error.
func TestRunContextCancelMidRun(t *testing.T) {
	g := geometry.Default(48, 48, 16, 16, 16, 16)
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	proj := projector.AnalyticAll(ph, g, 0)
	// Throttled storage stretches the run so cancellation lands mid-flight.
	store := pfs.New(pfs.Config{ReadBW: 2e6, Throttle: true})
	if err := StageProjections(store, "in", proj); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		R: 2, C: 2,
		Geometry:       g,
		InputPrefix:    "in",
		AssembleVolume: true,
		Progress: func(done, total int) {
			if done == 2 {
				cancel() // strike while the pipeline is mid-flight
			}
		},
	}
	start := time.Now()
	err := failedRun(t, ctx, cfg, store)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// failedRun runs cfg, requires the run to fail, and checks that it left
// nothing behind: every pipeline goroutine has exited, and the slab volumes
// and filtered projections stranded mid-flight went back to their pools, so
// the engine's in-use gauge (which feeds /v1/metrics) does not drift per
// failed or cancelled job. It returns the run's error.
func failedRun(t *testing.T, ctx context.Context, cfg Config, store *pfs.PFS) error {
	t.Helper()
	baseline := runtime.NumGoroutine()
	poolBaseline := engine.InUseBytes()
	res, err := RunContext(ctx, cfg, store)
	if err == nil {
		t.Fatal("run did not fail")
	}
	if res != nil {
		t.Error("failed run returned a result")
	}
	waitGoroutines(t, baseline)
	if got := engine.InUseBytes(); got != poolBaseline {
		t.Errorf("pool in-use bytes drifted across a failed run: %d -> %d", poolBaseline, got)
	}
	return err
}

// A pre-cancelled context fails immediately without leaking.
func TestRunContextAlreadyCancelled(t *testing.T) {
	g, store, _ := testSetup(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{R: 2, C: 2, Geometry: g, InputPrefix: "in"}
	if _, err := RunContext(ctx, cfg, store); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitGoroutines(t, baseline)
}

// Cancelling a 4×2 run while its column leads are between batches — each
// has swept one batch of 32 into the four slab pairs of its column and
// holds half of the next — must return every pooled byte, the slab pairs
// of the ranks the leads sweep for included: the pools are back at 0 once
// RunContext returns.
func TestRunContextCancelMidBatchReleasesSlabs(t *testing.T) {
	g := geometry.Default(32, 32, 192, 16, 16, 16) // 24 rounds a rank; a lead takes 4 blocks a round
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	store := pfs.New(pfs.Config{})
	if err := StageProjections(store, "in", projector.AnalyticAll(ph, g, 0)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		R: 4, C: 2,
		Geometry:    g,
		InputPrefix: "in",
		Progress: func(done, total int) {
			if done == 8*12 { // round 12 of every rank: 48 blocks gathered per column
				cancel()
			}
		},
	}
	if err := failedRun(t, ctx, cfg, store); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if n := engine.InUseBytes(); n != 0 {
		t.Errorf("engine pools hold %d bytes after the cancelled run", n)
	}
}
