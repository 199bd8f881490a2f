package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ifdk/internal/engine"
)

func TestRunRequiresPositiveSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Error("Run(0) should fail")
	}
}

func TestRankAndSize(t *testing.T) {
	var seen [4]atomic.Bool
	err := Run(4, func(c *Comm) error {
		if c.Size() != 4 {
			return fmt.Errorf("size %d", c.Size())
		}
		if seen[c.Rank()].Swap(true) {
			return fmt.Errorf("duplicate rank %d", c.Rank())
		}
		if c.GlobalRank() != c.Rank() {
			return fmt.Errorf("world global rank %d != %d", c.GlobalRank(), c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range seen {
		if !seen[r].Load() {
			t.Errorf("rank %d never ran", r)
		}
	}
}

// sendVals sends vals to dst in a fresh pooled block.
func sendVals(c *Comm, dst, tag int, vals ...float32) error {
	buf := engine.Blocks.Acquire(len(vals))
	copy(buf.Data, vals)
	return c.SendBuf(dst, tag, buf)
}

// recvVals receives one message and returns a copy of its payload, handing
// the block back to the pool.
func recvVals(c *Comm, src, tag int) ([]float32, error) {
	buf, err := c.RecvBuf(src, tag)
	if err != nil {
		return nil, err
	}
	defer buf.Release()
	return slices.Clone(buf.Data), nil
}

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return sendVals(c, 1, 7, 1, 2, 3)
		}
		got, err := recvVals(c, 0, 7)
		if err != nil {
			return err
		}
		if !slices.Equal(got, []float32{1, 2, 3}) {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tag 2 first, then tag 1; receiver asks for tag 1 first.
			if err := sendVals(c, 1, 2, 2); err != nil {
				return err
			}
			return sendVals(c, 1, 1, 1)
		}
		first, err := recvVals(c, 0, 1)
		if err != nil {
			return err
		}
		second, err := recvVals(c, 0, 2)
		if err != nil {
			return err
		}
		if first[0] != 1 || second[0] != 2 {
			return fmt.Errorf("tag matching failed: %v %v", first, second)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSender(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := sendVals(c, 1, 3, float32(i)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := recvVals(c, 0, 3)
			if err != nil {
				return err
			}
			if got[0] != float32(i) {
				return fmt.Errorf("message %d out of order: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNegativeTagRejected(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := sendVals(c, 0, -1); err == nil {
			return errors.New("negative send tag accepted")
		}
		if _, err := c.RecvBuf(0, -1); err == nil {
			return errors.New("negative recv tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanks(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := sendVals(c, 5, 0); err == nil {
			return errors.New("send to rank 5 accepted")
		}
		if _, err := c.RecvBuf(-2, 0); err == nil {
			return errors.New("recv from rank -2 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	var phase atomic.Int32
	err := Run(8, func(c *Comm) error {
		phase.Add(1)
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := phase.Load(); got != 8 {
			return fmt.Errorf("rank %d passed barrier with phase %d", c.Rank(), got)
		}
		return c.Barrier() // a second barrier must also work
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gatherVals runs AllGatherBufs on data and returns a copy of every
// gathered payload, releasing this rank's holds.
func gatherVals(c *Comm, data []float32) ([][]float32, error) {
	blocks, err := c.AllGatherBufs(data)
	if err != nil {
		return nil, err
	}
	out := make([][]float32, len(blocks))
	for i, b := range blocks {
		out[i] = slices.Clone(b.Data)
	}
	releaseAll(blocks)
	return out, nil
}

func TestAllGather(t *testing.T) {
	for _, size := range []int{1, 2, 3, 8} {
		err := Run(size, func(c *Comm) error {
			data := []float32{float32(c.Rank()), float32(c.Rank() * 2)}
			got, err := gatherVals(c, data)
			if err != nil {
				return err
			}
			if len(got) != size {
				return fmt.Errorf("got %d blocks", len(got))
			}
			for r := 0; r < size; r++ {
				if got[r][0] != float32(r) || got[r][1] != float32(r*2) {
					return fmt.Errorf("rank %d: block %d = %v", c.Rank(), r, got[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

// reduceAt runs ReduceBufs at root and returns a copy of the result on the
// root, and nil elsewhere; a block delivered off the root is an error.
func reduceAt(c *Comm, root int, data []float32) ([]float32, error) {
	got, err := c.ReduceBufs(root, data, OpSum)
	if err != nil {
		return nil, err
	}
	defer got.Release() // nil-safe off the root
	if (got != nil) != (c.Rank() == root) {
		return nil, fmt.Errorf("rank %d, root %d: block presence wrong (got=%v)", c.Rank(), root, got != nil)
	}
	if got == nil {
		return nil, nil
	}
	return slices.Clone(got.Data), nil
}

// The root must receive Σr = n(n−1)/2 and n.
func TestReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 5, 8} {
		err := Run(size, func(c *Comm) error {
			got, err := reduceAt(c, 0, []float32{float32(c.Rank()), 1})
			if err != nil || c.Rank() != 0 {
				return err
			}
			if got[0] != float32(size*(size-1)/2) || got[1] != float32(size) {
				return fmt.Errorf("reduced to %v", got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

// A reduction to a non-zero root must land there, and only there. (Sum is
// the only operator left, so the max / min half of this test is gone.)
func TestReduceMaxMinNonZeroRoot(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		got, err := reduceAt(c, 3, []float32{float32(c.Rank()), -float32(c.Rank())})
		if err != nil || c.Rank() != 3 {
			return err
		}
		if got[0] != 15 || got[1] != -15 {
			return fmt.Errorf("sum = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Reduce sums must be deterministic: two identical runs bit-match even for
// orders that float addition would distinguish, at a zero and a non-zero
// root.
func TestReduceDeterministic(t *testing.T) {
	run := func(root int) float32 {
		var result float32
		err := Run(8, func(c *Comm) error {
			data := []float32{float32(math.Pi) * float32(c.Rank()+1) * 1e-3}
			got, err := c.ReduceBufs(root, data, OpSum)
			if err != nil {
				return err
			}
			if c.Rank() == root {
				result = got.Data[0]
				got.Release()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return result
	}
	for _, root := range []int{0, 3} {
		if a, b := run(root), run(root); a != b {
			t.Errorf("root %d: reduce not deterministic: %v vs %v", root, a, b)
		}
	}
}

// The 2-D grid decomposition of iFDK: group the world into rows and
// columns and check group shapes and membership (Fig. 3a: R=4, C=2).
func TestSplitGrid(t *testing.T) {
	const R, C = 4, 2
	err := Run(R*C, func(c *Comm) error {
		row := c.Rank() % R
		col := c.Rank() / R
		var rowMembers, colMembers []int
		for k := 0; k < C; k++ {
			rowMembers = append(rowMembers, k*R+row)
		}
		for k := 0; k < R; k++ {
			colMembers = append(colMembers, col*R+k)
		}
		rowComm, err := c.Group(rowMembers)
		if err != nil {
			return err
		}
		colComm, err := c.Group(colMembers)
		if err != nil {
			return err
		}
		if rowComm.Size() != C {
			return fmt.Errorf("row comm size %d, want %d", rowComm.Size(), C)
		}
		if colComm.Size() != R {
			return fmt.Errorf("col comm size %d, want %d", colComm.Size(), R)
		}
		if rowComm.Rank() != col || colComm.Rank() != row {
			return fmt.Errorf("sub-ranks (%d,%d), want (%d,%d)", rowComm.Rank(), colComm.Rank(), col, row)
		}
		if colComm.GlobalRank() != c.Rank() {
			return fmt.Errorf("col comm global rank %d, want %d", colComm.GlobalRank(), c.Rank())
		}
		// Collectives on the sub-communicators must stay within the group.
		got, err := gatherVals(colComm, []float32{float32(c.Rank())})
		if err != nil {
			return err
		}
		for r := 0; r < R; r++ {
			want := float32(col*R + r)
			if got[r][0] != want {
				return fmt.Errorf("col gather slot %d = %v, want %v", r, got[r][0], want)
			}
		}
		sum, err := rowComm.ReduceBufs(0, []float32{float32(c.Rank())}, OpSum)
		if err != nil {
			return err
		}
		if rowComm.Rank() == 0 {
			defer sum.Release()
			if want := float32(C*row + R*C*(C-1)/2); sum.Data[0] != want {
				return fmt.Errorf("row reduce = %v, want %v", sum.Data, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A member list must hold the caller once, and only ranks of the parent.
func TestGroupRejectsBadMembers(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		for _, members := range [][]int{
			{(c.Rank() + 1) % 3}, // without the caller
			{c.Rank(), 3},        // out of range
			{-1, c.Rank()},       // out of range
			{c.Rank(), c.Rank()}, // repeated
			{c.Rank(), (c.Rank() + 1) % 3, (c.Rank() + 1) % 3}, // repeated
		} {
			if g, err := c.Group(members); err == nil {
				return fmt.Errorf("rank %d: group %v accepted (size %d)", c.Rank(), members, g.Size())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Two successive groups over the same members are two communicators: a
// message sent on the first is never received on the second, although
// source and tag match.
func TestGroupSuccessiveDoNotCross(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil // not a member of either
		}
		first, err := c.Group([]int{0, 2})
		if err != nil {
			return err
		}
		second, err := c.Group([]int{0, 2})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := sendVals(first, 1, 7, 1); err != nil {
				return err
			}
			return sendVals(second, 1, 7, 2)
		}
		got, err := recvVals(second, 0, 7)
		if err != nil {
			return err
		}
		if got[0] != 2 {
			return fmt.Errorf("second group received %v, want the message sent on it", got)
		}
		if got, err = recvVals(first, 0, 7); err != nil || got[0] != 1 {
			return fmt.Errorf("first group received %v (%v), want [1]", got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Group never waits: two members get their communicator while the third
// never joins, block only in the collective that needs it, and the third's
// failure then aborts them with every pooled byte back.
func TestGroupMemberThatNeverJoins(t *testing.T) {
	base := engine.InUseBytes()
	errQuit := errors.New("rank 2 quits")
	var joined sync.WaitGroup
	joined.Add(2)
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			joined.Wait() // returns only if Group did not wait for rank 2
			return errQuit
		}
		g, err := c.Group([]int{0, 1, 2})
		joined.Done()
		if err != nil {
			return err
		}
		blocks, err := g.AllGatherBufs(make([]float32, 64))
		releaseAll(blocks)
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("gather without rank 2 ended in %v, want ErrAborted", err)
		}
		if _, err := c.Group([]int{0, 1}); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("group in an aborted world: %v, want ErrAborted", err)
		}
		return nil
	})
	if !errors.Is(err, errQuit) {
		t.Fatalf("err = %v, want rank 2's error only", err)
	}
	if held := engine.InUseBytes() - base; held != 0 {
		t.Fatalf("%d bytes still in use after the aborted group", held)
	}
}

func TestRankErrorAbortsWorld(t *testing.T) {
	sentinel := errors.New("injected failure")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// Other ranks block in a receive that can never complete.
		_, err := c.RecvBuf((c.Rank()+1)%4, 9)
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("expected ErrAborted, got %v", err)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("aggregate error should include sentinel: %v", err)
	}
}

func TestRankPanicBecomesError(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		// The panic's abort must wake this blocked receive.
		_, err := c.RecvBuf(0, 1)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 panicked: boom") {
		t.Errorf("err = %v, want rank 0's panic as an error", err)
	}
	if !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want the blocked receives to end in ErrAborted", err)
	}
}

// The counters measure logical payload: one 100-float message is 400 bytes,
// and a ring AllGather of size n sends n(n−1) messages of one block each,
// however many holders share the blocks.
func TestStatsCounters(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := sendVals(c, 1, 0, make([]float32, 100)...); err != nil {
				return err
			}
		} else {
			if _, err := recvVals(c, 0, 0); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.BytesSent() != 400 || c.MessagesSent() != 1 {
			return fmt.Errorf("point-to-point: %d bytes in %d messages, want 400 in 1", c.BytesSent(), c.MessagesSent())
		}
		if err := c.Barrier(); err != nil { // nobody sends before everyone has read
			return err
		}
		if _, err := gatherVals(c, make([]float32, 16)); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.BytesSent() != 400+2*64 || c.MessagesSent() != 1+2 {
			return fmt.Errorf("after AllGather: %d bytes in %d messages, want %d in 3", c.BytesSent(), c.MessagesSent(), 400+2*64)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: AllGatherBufs hands every rank the rank-ordered concatenation of
// all payloads, for random payload sizes and world sizes.
func TestAllGatherGatherEquivalenceProperty(t *testing.T) {
	f := func(sizeSeed, lenSeed uint8) bool {
		size := int(sizeSeed%6) + 1
		payloadLen := int(lenSeed % 17)
		var want []float32
		for r := 0; r < size; r++ {
			for i := 0; i < payloadLen; i++ {
				want = append(want, float32(r*100+i))
			}
		}
		ok := true
		err := Run(size, func(c *Comm) error {
			ag, err := gatherVals(c, want[c.Rank()*payloadLen:(c.Rank()+1)*payloadLen])
			if err != nil {
				return err
			}
			if !slices.Equal(slices.Concat(ag...), want) {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllGather8(b *testing.B) {
	payload := make([]float32, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := Run(8, func(c *Comm) error {
			blocks, err := c.AllGatherBufs(payload)
			releaseAll(blocks)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReduce8(b *testing.B) {
	payload := make([]float32, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := Run(8, func(c *Comm) error {
			acc, err := c.ReduceBufs(0, payload, OpSum)
			acc.Release() // nil-safe off the root
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
