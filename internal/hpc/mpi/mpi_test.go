package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
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

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []float32{1, 2, 3})
		}
		got, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float32{5}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect the in-flight message
			return nil
		}
		got, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if got[0] != 5 {
			return fmt.Errorf("message was aliased: %v", got)
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
			if err := c.Send(1, 2, []float32{2}); err != nil {
				return err
			}
			return c.Send(1, 1, []float32{1})
		}
		first, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		second, err := c.Recv(0, 2)
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
				if err := c.Send(1, 3, []float32{float32(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := c.Recv(0, 3)
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
		if err := c.Send(0, -1, nil); err == nil {
			return errors.New("negative send tag accepted")
		}
		if _, err := c.Recv(0, -1); err == nil {
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
		if err := c.Send(5, 0, nil); err == nil {
			return errors.New("send to rank 5 accepted")
		}
		if _, err := c.Recv(-2, 0); err == nil {
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

func TestAllGather(t *testing.T) {
	for _, size := range []int{1, 2, 3, 8} {
		err := Run(size, func(c *Comm) error {
			data := []float32{float32(c.Rank()), float32(c.Rank() * 2)}
			got, err := c.AllGather(data)
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

func TestReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 5, 8} {
		err := Run(size, func(c *Comm) error {
			data := []float32{float32(c.Rank()), 1}
			got, err := c.Reduce(0, data, OpSum)
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				if got != nil {
					return errors.New("non-root received reduction")
				}
				return nil
			}
			wantSum := float32(size * (size - 1) / 2)
			if got[0] != wantSum || got[1] != float32(size) {
				return fmt.Errorf("reduced to %v", got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestReduceMaxMinNonZeroRoot(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		data := []float32{float32(c.Rank()), -float32(c.Rank())}
		gotMax, err := c.Reduce(3, data, OpMax)
		if err != nil {
			return err
		}
		gotMin, err := c.Reduce(3, data, OpMin)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if gotMax[0] != 5 || gotMax[1] != 0 {
				return fmt.Errorf("max = %v", gotMax)
			}
			if gotMin[0] != 0 || gotMin[1] != -5 {
				return fmt.Errorf("min = %v", gotMin)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Reduce sums must be deterministic: two identical runs bit-match even for
// orders that float addition would distinguish.
func TestReduceDeterministic(t *testing.T) {
	run := func() []float32 {
		var result []float32
		err := Run(8, func(c *Comm) error {
			data := []float32{float32(math.Pi) * float32(c.Rank()+1) * 1e-3}
			got, err := c.Reduce(0, data, OpSum)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				result = got
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return result
	}
	a, b := run(), run()
	if a[0] != b[0] {
		t.Errorf("reduce not deterministic: %v vs %v", a[0], b[0])
	}
}

// The 2-D grid decomposition of iFDK: split the world into rows and
// columns and check group shapes and membership (Fig. 3a: R=4, C=2).
func TestSplitGrid(t *testing.T) {
	const R, C = 4, 2
	err := Run(R*C, func(c *Comm) error {
		row := c.Rank() % R
		col := c.Rank() / R
		rowComm, err := c.Split(row, col)
		if err != nil {
			return err
		}
		colComm, err := c.Split(col, row)
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
		// Collectives on the sub-communicators must stay within the group.
		got, err := colComm.AllGather([]float32{float32(c.Rank())})
		if err != nil {
			return err
		}
		for r := 0; r < R; r++ {
			want := float32(col*R + r)
			if got[r][0] != want {
				return fmt.Errorf("col gather slot %d = %v, want %v", r, got[r][0], want)
			}
		}
		sum, err := rowComm.Reduce(0, []float32{1}, OpSum)
		if err != nil {
			return err
		}
		if rowComm.Rank() == 0 && sum[0] != C {
			return fmt.Errorf("row reduce = %v", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOrdersByKey(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		// All same color, keys reversed: new ranks must be reversed.
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		if want := 3 - c.Rank(); sub.Rank() != want {
			return fmt.Errorf("sub rank %d, want %d", sub.Rank(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorAbortsWorld(t *testing.T) {
	sentinel := errors.New("injected failure")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// Other ranks block in a collective that can never complete.
		_, err := c.Recv((c.Rank()+1)%4, 9)
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
		_, err := c.Recv(0, 1)
		if !errors.Is(err, ErrAborted) && err != nil {
			return nil // rank may have received abort as error; fine
		}
		return nil
	})
	if err == nil || err.Error() == "" {
		t.Error("panic should surface as an error")
	}
}

func TestStatsCounters(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, make([]float32, 100)); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(0, 0); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.BytesSent() < 400 {
			return fmt.Errorf("bytes sent = %d", c.BytesSent())
		}
		if c.MessagesSent() < 1 {
			return fmt.Errorf("messages sent = %d", c.MessagesSent())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: AllGather hands every rank the rank-ordered concatenation of
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
			ag, err := c.AllGather(want[c.Rank()*payloadLen : (c.Rank()+1)*payloadLen])
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
			_, err := c.AllGather(payload)
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
			_, err := c.Reduce(0, payload, OpSum)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
