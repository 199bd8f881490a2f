package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/engine"
	"ifdk/internal/hpc/pfs"
)

// Failure injection: when the PFS rejects writes mid-store, the whole run
// must fail cleanly (no deadlock, error propagated) rather than silently
// producing a partial volume.
func TestStoreFailurePropagates(t *testing.T) {
	g := geometry.Default(48, 48, 16, 16, 16, 16)
	ph := phantom.UniformSphere(g.FOVRadius()*0.5, 1)
	proj := projector.AnalyticAll(ph, g, 0)
	store := pfs.New(pfs.Config{})
	if err := StageProjections(store, "in", proj); err != nil {
		t.Fatal(err)
	}
	// Allow the input staging reads; fail a write during the output store.
	store.FailAfterWrites(4)
	cfg := Config{R: 2, C: 2, Geometry: g, InputPrefix: "in", OutputPrefix: "out"}
	err := failedRun(t, context.Background(), cfg, store)
	if !strings.Contains(err.Error(), "injected write failure") {
		t.Errorf("unexpected error: %v", err)
	}
}

// requireStageError checks that a failed run reports the failing stage's
// own error, not the cancellation that unwound the other stages.
func requireStageError(t *testing.T, err error, want string) {
	t.Helper()
	if errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want the stage's error, not context.Canceled", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to carry %q", err, want)
	}
}

// A single corrupt projection object must abort the whole world without
// hanging the other ranks in their collectives.
func TestCorruptProjectionAborts(t *testing.T) {
	g := geometry.Default(48, 48, 16, 16, 16, 16)
	ph := phantom.UniformSphere(g.FOVRadius()*0.5, 1)
	proj := projector.AnalyticAll(ph, g, 0)
	store := pfs.New(pfs.Config{})
	if err := StageProjections(store, "in", proj); err != nil {
		t.Fatal(err)
	}
	// Overwrite one projection with garbage bytes.
	if _, err := store.Write(pfs.ProjectionPath("in", 5), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{R: 2, C: 2, Geometry: g, InputPrefix: "in"}
	err := failedRun(t, context.Background(), cfg, store)
	requireStageError(t, err, "image blob too short")
}

// A wrongly sized projection (valid blob, wrong detector) must be rejected
// by the filtering stage and abort cleanly.
func TestWrongSizeProjectionAborts(t *testing.T) {
	g := geometry.Default(48, 48, 16, 16, 16, 16)
	ph := phantom.UniformSphere(g.FOVRadius()*0.5, 1)
	proj := projector.AnalyticAll(ph, g, 0)
	store := pfs.New(pfs.Config{})
	if err := StageProjections(store, "in", proj); err != nil {
		t.Fatal(err)
	}
	small := projector.Analytic(ph, geometry.Default(16, 16, 16, 8, 8, 8), 0)
	if _, err := store.WriteProjection("in", 3, small); err != nil {
		t.Fatal(err)
	}
	cfg := Config{R: 4, C: 1, Geometry: g, InputPrefix: "in"}
	err := failedRun(t, context.Background(), cfg, store)
	requireStageError(t, err, "image blob is 16x16, destination is 48x48")
}

// A filtering failure on the rank of a column that does not sweep must fail
// the run with that rank's error while its column's lead may still be
// sweeping into its slab pair: the pair goes back to the pool only once the
// sweep has ended, and every pooled byte is back at 0 once RunContext
// returns.
func TestNonLeadFilterFailureReleasesSlabs(t *testing.T) {
	g := geometry.Default(32, 32, 128, 16, 16, 16)
	ph := phantom.UniformSphere(g.FOVRadius()*0.5, 1)
	store := pfs.New(pfs.Config{})
	if err := StageProjections(store, "in", projector.AnalyticAll(ph, g, 0)); err != nil {
		t.Fatal(err)
	}
	// R = 2, C = 1: rank 1, row 1, filters projections 64…127; its 41st
	// comes after the lead has taken 80 blocks, two and a half batches.
	if _, err := store.Write(pfs.ProjectionPath("in", 104), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{R: 2, C: 1, Geometry: g, InputPrefix: "in"}
	err := failedRun(t, context.Background(), cfg, store)
	requireStageError(t, err, "rank 1: projection 104")
	if n := engine.InUseBytes(); n != 0 {
		t.Errorf("engine pools hold %d bytes after the failed run", n)
	}
}
