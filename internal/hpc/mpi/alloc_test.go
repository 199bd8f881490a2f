package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"ifdk/internal/engine"
	"ifdk/internal/race"
)

// AllGatherBufs must hand every rank the rank-ordered blocks, block r being
// rank r's payload value for value, under the pooled ownership contract.
func TestAllGatherBufsMatchesAllGather(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		err := Run(n, func(c *Comm) error {
			data := make([]float32, 64)
			for i := range data {
				data[i] = float32(c.Rank()*1000 + i)
			}
			got, err := c.AllGatherBufs(data)
			if err != nil {
				return err
			}
			defer releaseAll(got)
			if len(got) != n {
				return fmt.Errorf("got %d blocks", len(got))
			}
			for r, b := range got {
				if len(b.Data) != len(data) {
					return fmt.Errorf("rank %d block %d: len %d, want %d", c.Rank(), r, len(b.Data), len(data))
				}
				for i, v := range b.Data {
					if v != float32(r*1000+i) {
						return fmt.Errorf("rank %d block %d element %d = %v", c.Rank(), r, i, v)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// The per-round receive blocks must come from the pool, not the heap: the
// steady-state allocation rate of pooled rounds has to sit far below the
// unpooled baseline of size blocks × block bytes per rank per round. GC is
// disabled across the measurement so sync.Pool cannot be drained mid-test.
func TestAllGatherBufsAllocRegression(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	const (
		ranks    = 4
		blockLen = 16 * 1024 // 64 KiB per block, a realistic projection row block
		rounds   = 50
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	doRounds := func(k int) error {
		return Run(ranks, func(c *Comm) error {
			data := make([]float32, blockLen)
			for r := 0; r < k; r++ {
				bufs, err := c.AllGatherBufs(data)
				if err != nil {
					return err
				}
				for _, b := range bufs {
					b.Release()
				}
			}
			return nil
		})
	}
	// Warm the pool (first rounds do allocate their blocks).
	if err := doRounds(4); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := doRounds(rounds); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	perRound := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	// Unpooled, every rank allocates its own copy plus size-1 receive
	// blocks per round: ranks × ranks × blockLen × 4 bytes.
	unpooled := int64(ranks * ranks * blockLen * 4)
	t.Logf("pooled AllGather allocates %d B/round (unpooled baseline %d B/round)", perRound, unpooled)
	if perRound > unpooled/5 {
		t.Fatalf("AllGatherBufs allocates %d B/round, want < 20%% of the %d B/round unpooled baseline — blocks are not being pooled",
			perRound, unpooled)
	}
}

// AllGatherShared must deliver the rank-ordered blocks, and by reference:
// every rank's out[i] is rank i's own block, not a copy of it. From size 3
// on, ranks forward blocks they themselves received.
func TestAllGatherSharedByReference(t *testing.T) {
	for size := 1; size <= 5; size++ {
		owns := make([]*engine.Buf[float32], size)
		got := make([][]*engine.Buf[float32], size)
		base := engine.InUseBytes()
		err := Run(size, func(c *Comm) error {
			own := engine.Blocks.Acquire(37)
			for i := range own.Data {
				own.Data[i] = float32(c.Rank()*1000+i) * 0.25
			}
			owns[c.Rank()] = own
			blocks, err := c.AllGatherShared(own)
			if err != nil {
				return err
			}
			got[c.Rank()] = blocks
			for r, b := range blocks {
				for i, v := range b.Data {
					if v != float32(r*1000+i)*0.25 {
						t.Errorf("size %d rank %d: block %d element %d = %v", size, c.Rank(), r, i, v)
						break
					}
				}
			}
			return nil // holds are released below, after every rank has read
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for rank, blocks := range got {
			for i, b := range blocks {
				if b != owns[i] {
					t.Errorf("size %d: rank %d holds a copy of rank %d's block, want the block itself", size, rank, i)
				}
			}
		}
		for _, blocks := range got {
			releaseAll(blocks)
		}
		if held := engine.InUseBytes() - base; held != 0 {
			t.Errorf("size %d: %d bytes still in use after every holder released", size, held)
		}
	}
}

// A shared round moves no payload bytes through the allocator: the only
// payload is each rank's own pooled block, and the ring forwards handles.
// What a round may allocate is bookkeeping (the out slice), well under a
// tenth of one block. GC is disabled so sync.Pool cannot be drained.
func TestAllGatherSharedAllocRegression(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	const (
		ranks    = 4
		blockLen = 16 * 1024 // 64 KiB per block
		rounds   = 50
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	doRounds := func(k int) error {
		return Run(ranks, func(c *Comm) error {
			for r := 0; r < k; r++ {
				own := engine.Blocks.Acquire(blockLen)
				blocks, err := c.AllGatherShared(own)
				if err != nil {
					return err
				}
				releaseAll(blocks)
			}
			return nil
		})
	}
	if err := doRounds(4); err != nil { // warm the pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := doRounds(rounds); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	perRound := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	t.Logf("shared AllGather allocates %d B/round (one block is %d B)", perRound, 4*blockLen)
	if perRound > 4*blockLen/10 {
		t.Fatalf("AllGatherShared allocates %d B/round, want ≈ 0 payload bytes (< %d B) — blocks are being copied or not pooled",
			perRound, 4*blockLen/10)
	}
}

// A world that aborts while shared blocks sit undelivered in a mailbox —
// one of them forwarded, so shared three ways — must release every hold
// exactly once: the drained queue's, and each surviving rank's. The pool
// gauge the benchmark reads at shutdown comes back to where it started
// (double releases would take it below).
func TestAllGatherSharedAbortReleasesQueuedBlocks(t *testing.T) {
	base := engine.InUseBytes()
	errQuit := errors.New("rank 2 quits")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			// Rank 2 never joins: wait until rank 0's first send and both
			// of rank 1's (its own block, then rank 0's, forwarded) are
			// queued — two of them in this rank's mailbox — then fail.
			for c.MessagesSent() < 3 {
				runtime.Gosched()
			}
			return errQuit
		}
		own := engine.Blocks.Acquire(64)
		blocks, err := c.AllGatherShared(own)
		releaseAll(blocks)
		return err
	})
	if !errors.Is(err, errQuit) || !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want rank 2's error and ErrAborted", err)
	}
	if held := engine.InUseBytes() - base; held != 0 {
		t.Fatalf("%d bytes still in use after the aborted gather (negative: released twice)", held)
	}

	// A send into an already aborted world releases the hold it was given.
	err = Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return errQuit
		}
		if err := c.Barrier(); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("barrier: %v, want ErrAborted", err)
		}
		_, err := c.AllGatherShared(engine.Blocks.Acquire(64))
		return err
	})
	if !errors.Is(err, errQuit) || !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want rank 1's error and ErrAborted", err)
	}
	if held := engine.InUseBytes() - base; held != 0 {
		t.Fatalf("%d bytes still in use after gathering into an aborted world", held)
	}
}
