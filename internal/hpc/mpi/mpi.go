// Package mpi provides an in-process message-passing runtime with MPI-like
// semantics: ranks execute as goroutines, exchange messages through matched
// (source, tag) mailboxes, and synchronize through collectives implemented
// on top of point-to-point transfers (ring AllGather, binomial Reduce), so
// their message counts and payload bytes match the models in the paper's
// Sec. 4.2. Every payload rides a pooled engine.Blocks block and moves by
// handle, never by copy: SendBuf hands its block to the receiver, and
// AllGatherShared hands every rank of the ring the same read-only block.
//
// The paper drives iFDK with Intel MPI over InfiniBand; this package is the
// substitution that lets the full framework — the 2-D rank grid, the column
// AllGather of filtered projections and the row Reduce of sub-volumes
// (Fig. 3) — run unmodified on one machine. Collective reduction orders are
// fixed by the tree shape, so distributed results are deterministic for a
// given communicator size.
package mpi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ifdk/internal/engine"
)

// ErrAborted is returned by communication calls after any rank in the world
// has failed; it prevents surviving ranks from deadlocking in collectives.
var ErrAborted = errors.New("mpi: world aborted")

// envelope is an in-flight message.
type envelope struct {
	ctx int64 // communicator context id
	src int   // global source rank
	tag int
	buf *engine.Buf[float32]
}

// mailbox holds undelivered messages for one global rank.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []envelope
	aborted bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// world is the shared state behind all communicators of one Run.
type world struct {
	size      int
	boxes     []*mailbox
	nextCtx   atomic.Int64
	aborted   atomic.Bool
	bytesSent atomic.Int64
	msgsSent  atomic.Int64

	splitMu sync.Mutex
	splits  map[string]*splitState

	sharedMu sync.Mutex
	shareds  []*commShared // every communicator ever built, for abort wakeups
}

type splitState struct {
	want    int
	entries []splitEntry
	done    bool
	result  map[int]*commShared // global rank → new shared comm
	cond    *sync.Cond
}

type splitEntry struct {
	color, key, globalRank, commRank int
}

// commShared is the per-communicator state shared by all member handles.
type commShared struct {
	ctx    int64
	w      *world
	global []int // commRank → global rank

	barrierMu   sync.Mutex
	barrierCond *sync.Cond
	barrierCnt  int
	barrierGen  int
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	shared   *commShared
	rank     int // rank within this communicator
	splitSeq int // number of Splits this rank has performed on this comm
}

func newWorld(n int) *world {
	w := &world{size: n, boxes: make([]*mailbox, n), splits: make(map[string]*splitState)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

func (w *world) newShared(global []int) *commShared {
	s := &commShared{ctx: w.nextCtx.Add(1), w: w, global: global}
	s.barrierCond = sync.NewCond(&s.barrierMu)
	w.sharedMu.Lock()
	w.shareds = append(w.shareds, s)
	w.sharedMu.Unlock()
	return s
}

// abort marks the world dead and wakes every blocked waiter: mailbox
// receivers, in-flight Split rendezvous and Barrier parties. All of them
// re-check the aborted flag under the same mutex their wait uses, so no
// wakeup is lost.
func (w *world) abort() {
	if w.aborted.Swap(true) {
		return
	}
	for _, b := range w.boxes {
		b.mu.Lock()
		b.aborted = true
		// Undelivered messages will never be received (recv reports
		// ErrAborted without dequeuing); recycle their pooled blocks
		// instead of stranding them until GC.
		for i := range b.queue {
			b.queue[i].buf.Release()
		}
		b.queue = nil
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	w.splitMu.Lock()
	for _, st := range w.splits {
		st.cond.Broadcast()
	}
	w.splitMu.Unlock()
	w.sharedMu.Lock()
	shareds := append([]*commShared(nil), w.shareds...)
	w.sharedMu.Unlock()
	for _, s := range shareds {
		s.barrierMu.Lock()
		s.barrierCond.Broadcast()
		s.barrierMu.Unlock()
	}
}

// Run executes body on n ranks (goroutines) sharing a fresh world and
// returns the combined errors of all ranks. A panicking rank is converted to
// an error and aborts the world, releasing ranks blocked in communication.
func Run(n int, body func(c *Comm) error) error {
	return RunContext(context.Background(), n, body)
}

// RunContext is Run with external cancellation: when ctx is cancelled the
// world aborts, so ranks blocked in point-to-point or collective calls
// return ErrAborted instead of deadlocking. This is the teardown path a
// long-lived service uses to cancel an in-flight reconstruction.
func RunContext(ctx context.Context, n int, body func(c *Comm) error) error {
	if n <= 0 {
		return fmt.Errorf("mpi: world size %d must be positive", n)
	}
	w := newWorld(n)
	stop := make(chan struct{})
	defer close(stop)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				w.abort()
			case <-stop:
			}
		}()
	}
	global := make([]int, n)
	for i := range global {
		global[i] = i
	}
	shared := w.newShared(global)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
					w.abort()
				}
			}()
			errs[r] = body(&Comm{shared: shared, rank: r})
			if errs[r] != nil {
				w.abort()
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Rank returns this rank's id within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.shared.global) }

// GlobalRank returns this rank's id in the world communicator.
func (c *Comm) GlobalRank() int { return c.shared.global[c.rank] }

// BytesSent returns the total payload bytes sent so far across the world —
// a hook for validating the communication-volume terms of the performance
// model.
func (c *Comm) BytesSent() int64 { return c.shared.w.bytesSent.Load() }

// MessagesSent returns the total number of messages sent across the world.
func (c *Comm) MessagesSent() int64 { return c.shared.w.msgsSent.Load() }

// sendBuf delivers a pooled block to dst without a copy, handing the
// caller's hold on it to the mailbox (a ReduceBufs accumulator moving up the
// tree, a shared AllGather block moving round the ring). The hold ALWAYS
// transfers: on any error it is released here, so the caller must not touch
// the handle afterwards regardless of outcome.
func (c *Comm) sendBuf(dst, tag int, buf *engine.Buf[float32]) error {
	if dst < 0 || dst >= c.Size() {
		buf.Release()
		return fmt.Errorf("mpi: send to invalid rank %d (size %d)", dst, c.Size())
	}
	return c.enqueue(dst, tag, envelope{buf: buf})
}

// SendBuf delivers a pooled block to dst (a rank of this communicator)
// with the given non-negative tag. Sends are buffered and never block. The
// payload moves without a copy, and ownership of buf always transfers
// (released internally on error). Pair with RecvBuf on the receiving side.
func (c *Comm) SendBuf(dst, tag int, buf *engine.Buf[float32]) error {
	if tag < 0 {
		buf.Release()
		return fmt.Errorf("mpi: negative tags are reserved")
	}
	return c.sendBuf(dst, tag, buf)
}

// RecvBuf blocks until a message from src with the given tag arrives and
// returns its pooled block; the caller owns the release.
func (c *Comm) RecvBuf(src, tag int) (*engine.Buf[float32], error) {
	if tag < 0 {
		return nil, fmt.Errorf("mpi: negative tags are reserved")
	}
	return c.recv(src, tag)
}

// enqueue delivers env to dst's mailbox. An aborted world delivers nothing:
// the envelope's pooled hold is released here. The check runs under the
// mailbox lock and abort sets the flag before it drains any mailbox, so
// every hold is released exactly once — by the receiver, by abort's drain,
// or here.
func (c *Comm) enqueue(dst, tag int, env envelope) error {
	env.ctx, env.src, env.tag = c.shared.ctx, c.rank, tag
	box := c.shared.w.boxes[c.shared.global[dst]]
	box.mu.Lock()
	if c.shared.w.aborted.Load() {
		box.mu.Unlock()
		env.buf.Release()
		return ErrAborted
	}
	box.queue = append(box.queue, env)
	box.cond.Broadcast()
	box.mu.Unlock()
	c.shared.w.bytesSent.Add(int64(4 * len(env.buf.Data)))
	c.shared.w.msgsSent.Add(1)
	return nil
}

// recv dequeues the first message from src with the given tag on this
// communicator, blocking until one arrives or the world aborts.
func (c *Comm) recv(src, tag int) (*engine.Buf[float32], error) {
	if src < 0 || src >= c.Size() {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d (size %d)", src, c.Size())
	}
	box := c.shared.w.boxes[c.GlobalRank()]
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		for i, env := range box.queue {
			if env.ctx == c.shared.ctx && env.src == src && env.tag == tag {
				box.queue = append(box.queue[:i], box.queue[i+1:]...)
				return env.buf, nil
			}
		}
		if box.aborted {
			return nil, ErrAborted
		}
		box.cond.Wait()
	}
}

// Barrier blocks until every rank of the communicator has entered it.
//
//ifdk:noctx cancellation contract is Abort/RunContext, which wakes every parked collective
func (c *Comm) Barrier() error {
	s := c.shared
	s.barrierMu.Lock()
	defer s.barrierMu.Unlock()
	gen := s.barrierGen
	s.barrierCnt++
	if s.barrierCnt == c.Size() {
		s.barrierCnt = 0
		s.barrierGen++
		s.barrierCond.Broadcast()
		return nil
	}
	for s.barrierGen == gen {
		if s.w.aborted.Load() {
			s.barrierCond.Broadcast()
			return ErrAborted
		}
		s.barrierCond.Wait()
	}
	return nil
}

const (
	tagAllG   = -4
	tagReduce = -5
)

// AllGatherShared gathers every rank's block on every rank (rank order
// preserved) with the ring algorithm: size-1 steps, each passing one block
// to the right neighbour. This is the collective used to share filtered
// projections within a column group (Fig. 3b). own is this rank's payload
// block (its hold passes to the call) and the ring forwards block handles,
// not copies. Before forwarding a block — its own, or one it received — a
// rank Retains it once for the neighbour, so at the end all size ranks hold
// the same size blocks (out[i] is rank i's), the contents are read-only for
// all of them, and each owes one Release per block. Message and byte counts
// are those of a copying ring: the counters measure logical payload, not
// copies. On error every hold this rank has, own included, is released.
func (c *Comm) AllGatherShared(own *engine.Buf[float32]) ([]*engine.Buf[float32], error) {
	size := c.Size()
	out := make([]*engine.Buf[float32], size)
	out[c.rank] = own
	if size == 1 {
		return out, nil
	}
	right := (c.rank + 1) % size
	left := (c.rank - 1 + size) % size
	for step := 0; step < size-1; step++ {
		blk := out[(c.rank-step+size)%size]
		blk.Retain(1) // the right neighbour becomes a holder
		if err := c.sendBuf(right, tagAllG, blk); err != nil {
			releaseAll(out)
			return nil, err
		}
		got, err := c.recv(left, tagAllG)
		if err != nil {
			releaseAll(out)
			return nil, err
		}
		out[(c.rank-step-1+size)%size] = got
	}
	return out, nil
}

// AllGatherBufs is AllGatherShared for a payload that is not in a pooled
// block yet: data is copied once into one, which then goes round the ring
// by reference. The returned blocks are shared with the peers — read-only —
// and the caller must Release each.
func (c *Comm) AllGatherBufs(data []float32) ([]*engine.Buf[float32], error) {
	own := engine.Blocks.Acquire(len(data))
	copy(own.Data, data)
	return c.AllGatherShared(own)
}

// releaseAll drops this rank's hold on every gathered block (nil-safe).
func releaseAll(bufs []*engine.Buf[float32]) {
	for _, b := range bufs {
		b.Release()
	}
}

// ReduceOp is a binary element-wise reduction operator.
type ReduceOp int

// OpSum adds elements (the volume reduction of Fig. 4b).
const OpSum ReduceOp = 0

func (op ReduceOp) apply(acc, in []float32) error {
	if op != OpSum {
		return fmt.Errorf("mpi: unknown reduce op %d", op)
	}
	if len(acc) != len(in) {
		return fmt.Errorf("mpi: reduce length mismatch %d vs %d", len(acc), len(in))
	}
	for i := range acc {
		acc[i] += in[i]
	}
	return nil
}

// ReduceBufs combines all ranks' equally sized payloads element-wise at
// root using a binomial tree (log2(size) combining steps on the critical
// path, matching the cost model of Eq. 15). The accumulator and every tree
// transfer are drawn from the shared block pool, so the per-job epilogue
// allocates nothing. The combine order is fixed by the tree, so results are
// deterministic. Root owns the returned block and must Release it; other
// ranks receive nil.
func (c *Comm) ReduceBufs(root int, data []float32, op ReduceOp) (*engine.Buf[float32], error) {
	if root < 0 || root >= c.Size() {
		return nil, fmt.Errorf("mpi: reduce root %d out of range", root)
	}
	acc := engine.Blocks.Acquire(len(data))
	copy(acc.Data, data)
	parent, err := c.combine(root, acc.Data, op)
	if err != nil {
		acc.Release()
		return nil, err
	}
	if parent >= 0 {
		// Interior rank: the accumulator itself moves to the parent.
		return nil, c.sendBuf(parent, tagReduce, acc)
	}
	return acc, nil
}

// ReduceInPlace is ReduceBufs with the root's own payload as the
// accumulator: the root adds its children's blocks into data, in the same
// tree order, so it copies nothing and data holds the reduction when the
// call returns. Every other rank runs ReduceBufs, copying data into the
// pooled block that moves up the tree, and its data is left as it was.
func (c *Comm) ReduceInPlace(root int, data []float32, op ReduceOp) error {
	if c.rank != root {
		_, err := c.ReduceBufs(root, data, op)
		return err
	}
	_, err := c.combine(root, data, op)
	return err
}

// combine adds this rank's binomial-tree children into acc, in the tree's
// fixed order, and returns the rank of its parent; -1 at the root.
func (c *Comm) combine(root int, acc []float32, op ReduceOp) (parent int, err error) {
	size := c.Size()
	vr := (c.rank - root + size) % size
	for mask := 1; mask < size; mask <<= 1 {
		if vr&mask != 0 {
			return (vr - mask + root) % size, nil
		}
		peer := vr | mask
		if peer < size {
			got, err := c.recv((peer+root)%size, tagReduce)
			if err != nil {
				return 0, err
			}
			err = op.apply(acc, got.Data)
			got.Release()
			if err != nil {
				return 0, err
			}
		}
	}
	return -1, nil
}

// Split partitions the communicator: ranks passing the same color form a
// new communicator, ordered by (key, rank). Every rank of the parent must
// call Split. iFDK uses two splits to build the R×C grid: one by row index,
// one by column index (Sec. 4.1.1).
//
//ifdk:noctx cancellation contract is Abort/RunContext, which wakes every parked collective
func (c *Comm) Split(color, key int) (*Comm, error) {
	if c.shared.w.aborted.Load() {
		return nil, ErrAborted
	}
	w := c.shared.w
	// Key by communicator and per-rank split sequence number: MPI requires
	// all ranks to call collectives in the same order, so the n-th Split on
	// a communicator forms one matching set even when ranks overlap in time.
	stateKey := fmt.Sprintf("%d:%d", c.shared.ctx, c.splitSeq)
	c.splitSeq++
	w.splitMu.Lock()
	st, ok := w.splits[stateKey]
	if !ok {
		st = &splitState{want: c.Size()}
		st.cond = sync.NewCond(&w.splitMu)
		w.splits[stateKey] = st
	}
	st.entries = append(st.entries, splitEntry{color: color, key: key, globalRank: c.GlobalRank(), commRank: c.rank})
	if len(st.entries) == st.want {
		// Last arrival builds all sub-communicators.
		st.result = make(map[int]*commShared)
		groups := map[int][]splitEntry{}
		for _, e := range st.entries {
			groups[e.color] = append(groups[e.color], e)
		}
		colors := make([]int, 0, len(groups))
		for col := range groups {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		for _, col := range colors {
			g := groups[col]
			sort.Slice(g, func(a, b int) bool {
				if g[a].key != g[b].key {
					return g[a].key < g[b].key
				}
				return g[a].commRank < g[b].commRank
			})
			global := make([]int, len(g))
			for i, e := range g {
				global[i] = e.globalRank
			}
			shared := w.newShared(global)
			for _, e := range g {
				st.result[e.globalRank] = shared
			}
		}
		st.done = true
		// Reset for the next Split on this parent communicator.
		delete(w.splits, stateKey)
		st.cond.Broadcast()
	} else {
		for !st.done {
			if w.aborted.Load() {
				st.cond.Broadcast()
				w.splitMu.Unlock()
				return nil, ErrAborted
			}
			st.cond.Wait()
		}
	}
	shared := st.result[c.GlobalRank()]
	w.splitMu.Unlock()
	if shared == nil {
		return nil, fmt.Errorf("mpi: split produced no group for rank %d", c.rank)
	}
	newRank := -1
	for i, g := range shared.global {
		if g == c.GlobalRank() {
			newRank = i
			break
		}
	}
	return &Comm{shared: shared, rank: newRank}, nil
}
