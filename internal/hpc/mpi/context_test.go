package mpi

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Cancelling the context must abort the world and release ranks blocked in
// point-to-point calls instead of deadlocking them.
func TestRunContextCancelUnblocksRecv(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		done <- RunContext(ctx, 2, func(c *Comm) error {
			if c.Rank() == 0 {
				_, err := c.RecvBuf(1, 7) // rank 1 never sends
				return err
			}
			<-ctx.Done()
			return nil
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
}

// Cancelling during a collective releases all ranks too.
func TestRunContextCancelUnblocksCollective(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := RunContext(ctx, 3, func(c *Comm) error {
		if c.Rank() == 2 {
			<-ctx.Done() // skip the collective: peers must still unblock
			return nil
		}
		blocks, err := c.AllGatherBufs([]float32{float32(c.Rank())})
		releaseAll(blocks)
		return err
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

// A context that is never cancelled must not perturb a normal run.
func TestRunContextNormalCompletion(t *testing.T) {
	err := RunContext(context.Background(), 4, func(c *Comm) error {
		got, err := gatherVals(c, []float32{float32(c.Rank())})
		if err != nil {
			return err
		}
		for r, blk := range got {
			if len(blk) != 1 || blk[0] != float32(r) {
				t.Errorf("rank %d: block %d = %v", c.Rank(), r, blk)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
