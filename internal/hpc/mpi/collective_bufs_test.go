package mpi

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"ifdk/internal/engine"
	"ifdk/internal/race"
)

// ReduceBufs must deliver the element-wise sum at every root, including
// non-power-of-two world sizes where the binomial tree is irregular. The
// payloads are small integers, so the sum is exact in any order and equals
// its closed form (i+1)·n(n+1)/2.
func TestReduceBufsMatchesReduce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8} {
		for root := 0; root < n; root++ {
			err := Run(n, func(c *Comm) error {
				data := make([]float32, 33)
				for i := range data {
					data[i] = float32((c.Rank() + 1) * (i + 1))
				}
				got, err := reduceAt(c, root, data)
				if err != nil || got == nil {
					return err
				}
				for i, v := range got {
					if want := float32((i + 1) * n * (n + 1) / 2); v != want {
						return fmt.Errorf("element %d = %v, want %v", i, v, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

// SendBuf/RecvBuf must move a pooled payload point-to-point with the
// ownership contract intact, and SendBuf must release the block itself on
// a validation error (ownership always transfers).
func TestSendBufRecvBuf(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := engine.Blocks.Acquire(8)
			for i := range buf.Data {
				buf.Data[i] = float32(i) * 2
			}
			if err := c.SendBuf(1, 7, buf); err != nil {
				return err
			}
			// Invalid destination: SendBuf still consumes the block.
			bad := engine.Blocks.Acquire(4)
			if err := c.SendBuf(99, 7, bad); err == nil {
				t.Error("SendBuf to invalid rank succeeded")
			}
			bad = engine.Blocks.Acquire(4)
			if err := c.SendBuf(1, -1, bad); err == nil {
				t.Error("SendBuf with negative tag succeeded")
			}
			return nil
		}
		got, err := c.RecvBuf(0, 7)
		if err != nil {
			return err
		}
		defer got.Release()
		for i := range got.Data {
			if got.Data[i] != float32(i)*2 {
				t.Errorf("element %d = %v", i, got.Data[i])
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The reduce epilogue must run on pooled blocks: steady-state allocation
// per Reduce round has to sit far below the unpooled baseline of one
// accumulator plus one tree transfer per rank. GC is disabled across the
// measurement so sync.Pool cannot be drained mid-test.
func TestReduceBcastBufsAllocRegression(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	const (
		ranks    = 4
		blockLen = 64 * 1024 // 256 KiB per block, a realistic slab-pair shard
		rounds   = 50
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	doRounds := func(k int) error {
		return Run(ranks, func(c *Comm) error {
			data := make([]float32, blockLen)
			for r := 0; r < k; r++ {
				red, err := c.ReduceBufs(0, data, OpSum)
				if err != nil {
					return err
				}
				red.Release() // nil-safe off the root
				// The pipeline reduces once per job; back to back, the
				// leaves would run rounds ahead of the root and the blocks
				// in flight, not the pooling, would set the allocation.
				if err := c.Barrier(); err != nil {
					return err
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
	// Unpooled, every rank allocates an accumulator and every tree edge a
	// transfer copy: ~2 × ranks × blockLen × 4 bytes per round.
	unpooled := int64(2 * ranks * blockLen * 4)
	t.Logf("pooled reduce allocates %d B/round (unpooled baseline %d B/round)", perRound, unpooled)
	if perRound > unpooled/5 {
		t.Fatalf("ReduceBufs allocates %d B/round, want < 20%% of the %d B/round unpooled baseline — blocks are not being pooled",
			perRound, unpooled)
	}
}
