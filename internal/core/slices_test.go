package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ifdk/internal/ct/backproject"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

// sliceEvent records one SliceWritten callback.
type sliceEvent struct {
	z, written, total int
	onPFS             bool // the slice object existed when the callback fired
}

// The per-slice callback must fire exactly once per z, with the slice
// already durable on the PFS, in each row root's SlabPlanes order, with a
// serialized cumulative counter reaching exactly Nz.
func TestSliceCallbackOrdering(t *testing.T) {
	g, store, _ := testSetup(t)
	for _, grid := range [][2]int{{1, 1}, {2, 2}, {4, 2}, {2, 4}} {
		var mu sync.Mutex
		var events []sliceEvent
		cfg := Config{
			R: grid[0], C: grid[1],
			Geometry:     g,
			InputPrefix:  "in",
			OutputPrefix: "out",
			SliceWritten: func(z int, _ *volume.Image, written, total int) {
				mu.Lock()
				events = append(events, sliceEvent{
					z: z, written: written, total: total,
					onPFS: store.Exists(pfs.SlicePath("out", z)),
				})
				mu.Unlock()
			},
		}
		if _, err := Run(cfg, store); err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		if len(events) != g.Nz {
			t.Fatalf("grid %v: %d slice callbacks, want %d", grid, len(events), g.Nz)
		}
		seen := make(map[int]int)
		for i, e := range events {
			seen[e.z]++
			if e.total != g.Nz {
				t.Errorf("grid %v: event %d total = %d, want %d", grid, i, e.total, g.Nz)
			}
			if e.written != i+1 {
				t.Errorf("grid %v: event %d written = %d, want %d (serialized counter)", grid, i, e.written, i+1)
			}
			if !e.onPFS {
				t.Errorf("grid %v: slice %d callback fired before the PFS write", grid, e.z)
			}
		}
		for z := 0; z < g.Nz; z++ {
			if seen[z] != 1 {
				t.Errorf("grid %v: slice %d fired %d times, want exactly once", grid, z, seen[z])
			}
		}
		// Within each row group the z order must be the root's SlabPlanes
		// order; rows interleave freely, so check per-row subsequences.
		for row := 0; row < cfg.R; row++ {
			z0, z1 := RowSlab(row, g.Nz, cfg.R)
			want := backproject.SlabPlanes(g.Nz, z0, z1)
			inRow := make(map[int]bool, len(want))
			for _, z := range want {
				inRow[z] = true
			}
			var got []int
			for _, e := range events {
				if inRow[e.z] {
					got = append(got, e.z)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("grid %v row %d: %d events, want %d", grid, row, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("grid %v row %d: slab order %v, want %v", grid, row, got, want)
					break
				}
			}
		}
		// Fresh output namespace per grid.
		for _, path := range store.List("out/") {
			store.Delete(path)
		}
	}
}

// Without OutputPrefix the hook still fires once per z, nothing is stored,
// and the slices it is handed — copied out during each call, since the view
// is the row root's plane buffer — are the assembled volume's planes, bit
// for bit.
func TestSliceCallbackWithoutOutputPrefix(t *testing.T) {
	g, store, _ := testSetup(t)
	for _, grid := range [][2]int{{1, 1}, {2, 2}, {4, 2}} {
		got := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
		nxy, calls := g.Nx*g.Ny, 0
		cfg := Config{
			R: grid[0], C: grid[1],
			Geometry:    g,
			InputPrefix: "in",
			SliceWritten: func(z int, slice *volume.Image, _, _ int) {
				calls++
				copy(got.Data[z*nxy:(z+1)*nxy], slice.Data)
			},
		}
		if _, err := Run(cfg, store); err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		if calls != g.Nz {
			t.Fatalf("grid %v: %d slice callbacks, want %d", grid, calls, g.Nz)
		}
		cfg.SliceWritten, cfg.AssembleVolume = nil, true
		res, err := Run(cfg, store)
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		if d, err := volume.MaxAbsDiff(res.Volume, got); err != nil || d != 0 {
			t.Errorf("grid %v: handed-over slices differ from the assembled volume by %g (%v)", grid, d, err)
		}
		if objs := store.List("out/"); len(objs) != 0 {
			t.Errorf("grid %v: %d slices stored without an OutputPrefix", grid, len(objs))
		}
	}
}

// Cancelling mid-epilogue (from inside the first slice callback) must stop
// further slice publication almost immediately — each row root rechecks the
// context before every write, so at most one in-flight slice per row root
// can still land — and no callback may fire after RunContext has returned
// its cancellation error.
func TestSliceCallbackStopsOnCancel(t *testing.T) {
	g, store, _ := testSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var returned atomic.Bool
	var calls atomic.Int64
	cfg := Config{
		R: 2, C: 2,
		Geometry:     g,
		InputPrefix:  "in",
		OutputPrefix: "out",
		SliceWritten: func(z int, _ *volume.Image, written, total int) {
			if returned.Load() {
				t.Errorf("slice %d callback after RunContext returned", z)
			}
			if calls.Add(1) == 1 {
				cancel()
			}
		},
	}
	_, err := RunContext(ctx, cfg, store)
	returned.Store(true)
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("RunContext error = %v, want cancellation", err)
	}
	if n := calls.Load(); n < 1 || n > int64(cfg.R) {
		t.Errorf("%d slice callbacks after cancel, want between 1 and R=%d", n, cfg.R)
	}
	if n := len(store.List("out/")); n >= g.Nz {
		t.Errorf("%d slices stored despite cancellation, want < %d", n, g.Nz)
	}
}
