package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/engine"
	"ifdk/internal/hpc/mpi"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

// tag used by row roots to ship their reduced slab pairs, in plane order, to
// rank 0 for assembly.
const tagAssemble = 100

// projItem flows through the pipeline channels: one filtered,
// transposed projection (Nv×Nu, V fast — Alg. 4 line 3) in a pooled
// engine.Blocks block, with its global index. Its producer filtered it
// straight into that layout; after the AllGather every rank of the column holds the same block,
// read-only, and whoever consumes an item releases its hold exactly once.
type projItem struct {
	s   int
	buf *engine.Buf[float32]
}

// Run executes a distributed reconstruction on R·C in-process MPI ranks,
// reading projections from and writing volume slices to the given PFS.
// It is the Go realization of the paper's Fig. 2–4 flow.
func Run(cfg Config, store *pfs.PFS) (*Result, error) {
	return RunContext(context.Background(), cfg, store)
}

// RunContext is Run with cancellation: when ctx is cancelled the MPI world
// aborts, the pipeline goroutines of every rank drain and exit, and
// the call returns ctx's error. This is the teardown path the service layer
// uses to cancel an in-flight job without leaking goroutines. A failing
// stage unwinds the same way and the call returns that stage's error.
func RunContext(ctx context.Context, cfg Config, store *pfs.PFS) (*Result, error) {
	plan, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	n := len(plan.Ranks)
	res := &Result{PerRank: make([]StageTimes, n), Rounds: make([][]RoundTrace, n)}
	cols := newColumns(plan)
	// Every rank has returned by then, so no sweep writes any more: the slab
	// pairs no rank released on its way out — all of them when the job
	// failed or was cancelled — go back to the pool here.
	defer func() {
		for _, col := range cols {
			col.release()
		}
	}()
	var assembled atomic.Pointer[volume.Volume]
	var bytesSent atomic.Int64

	tick := func() {}
	if cfg.Progress != nil {
		total := cfg.Geometry.Np // one tick per projection, on the rank that filters it
		var mu sync.Mutex
		done := 0
		tick = func() {
			mu.Lock()
			done++
			cfg.Progress(done, total)
			mu.Unlock()
		}
	}
	sliceTick := func(int, *volume.Image) {}
	if cfg.SliceWritten != nil {
		total := cfg.Geometry.Nz // every row root hands its slab pair over once
		var mu sync.Mutex
		written := 0
		sliceTick = func(z int, slice *volume.Image) {
			mu.Lock()
			written++
			cfg.SliceWritten(z, slice, written, total)
			mu.Unlock()
		}
	}

	err = mpi.RunContext(ctx, n, func(c *mpi.Comm) error {
		t, vol, rounds, err := runRank(ctx, cfg, plan, cols[c.Rank()], store, c, tick, sliceTick)
		if err != nil {
			return err
		}
		res.PerRank[c.Rank()] = t
		res.Rounds[c.Rank()] = rounds
		if c.Rank() == 0 {
			bytesSent.Store(c.BytesSent())
			if vol != nil {
				assembled.Store(vol)
			}
		}
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("core: run cancelled: %w", ctx.Err())
		}
		return nil, err
	}
	for rank, t := range res.PerRank {
		res.Max = foldTimes(res.Max, t, plan.Ranks[rank].Row[0] == rank)
	}
	res.Volume = assembled.Load()
	res.BytesSent = bytesSent.Load()
	return res, nil
}

// column is what the ranks of one grid column share: the slab pairs they
// own, and the end of the one back-projection sweep that fills them all.
// Every rank of a column gathers the same blocks in the same order and
// batches them at the same DefaultBatch boundaries, so the column's lead,
// Column[0], sweeps each batch once at the column's full half-height and
// adds it into every rank's slab pair (backproject.ProposedSlabs): each
// voxel gets the bits its own rank's pass would give it.
type column struct {
	// slabs[i] is rank Column[i]'s slab pair. The rank acquires it on its
	// own goroutine, then counts ready down: the volume pool's sync.Pool
	// caches are per P, and one goroutine acquiring every pair of a job
	// misses pairs cached on the other Ps and allocates new ones. The rank
	// releases it on its success path and sets Vol to nil; RunContext
	// releases the rest.
	slabs []backproject.Slab
	ready sync.WaitGroup
	// swept is closed once the lead's pipeline has ended; failed, set
	// before, says its sweep did not get through every batch. A rank waits
	// on it only after its own pipeline succeeded, which took the lead
	// through every AllGather round, so the lead does get there.
	swept  chan struct{}
	failed bool
}

// newColumns returns each rank's column: cols[k] is rank k's.
func newColumns(plan Plan) []*column {
	cols := make([]*column, len(plan.Ranks))
	for k, rp := range plan.Ranks {
		if rp.Column[0] != k {
			continue
		}
		col := &column{swept: make(chan struct{})}
		col.ready.Add(len(rp.Column))
		for _, m := range rp.Column {
			col.slabs = append(col.slabs, backproject.Slab{Z0: plan.Ranks[m].Z0, Z1: plan.Ranks[m].Z1})
			cols[m] = col
		}
	}
	return cols
}

// release returns the slab pairs no rank released.
func (col *column) release() {
	for i, s := range col.slabs {
		if s.Vol != nil {
			engine.Volumes.Release(s.Vol)
			col.slabs[i].Vol = nil
		}
	}
}

// runRank is the body of one MPI rank, executing its entry of plan: the
// pipeline of Fig. 4a — three threads on the column's lead, which
// back-projects for the column, two on its other ranks — followed by the
// reduce/store epilogue of Fig. 4b. col is the rank's column. tick is
// called once per completed AllGather round for progress reporting;
// sliceTick once per output slice, with its global z index and a view of
// its plane, after any PFS write of it.
func runRank(ctx context.Context, cfg Config, plan Plan, col *column, store *pfs.PFS, c *mpi.Comm, tick func(), sliceTick func(z int, slice *volume.Image)) (StageTimes, *volume.Volume, []RoundTrace, error) {
	var t StageTimes
	g := cfg.Geometry
	me := plan.Ranks[c.Rank()]
	lead := me.Column[0] == c.Rank()
	h := me.Z1 - me.Z0
	own := slices.Index(me.Column, c.Rank()) // this rank's slab pair in col.slabs
	local := engine.Volumes.Acquire(g.Nx, g.Ny, 2*h, volume.KMajor)
	col.slabs[own].Vol = local
	col.ready.Done()
	// release hands the rank's slab pair back once the column's sweep has
	// ended and the rank is done with it, on the success path.
	release := func() {
		engine.Volumes.Release(local)
		col.slabs[own].Vol = nil
	}
	colComm, err := c.Group(me.Column) // column group: AllGather of projections
	if err != nil {
		return t, nil, nil, err
	}
	rowComm, err := c.Group(me.Row) // row group: Reduce of sub-volumes
	if err != nil {
		return t, nil, nil, err
	}

	start := time.Now()
	// Pre-sized per-rank round-trace buffer: the filter thread writes the
	// Filter* fields of entry r, the main thread the Gather* fields — disjoint
	// fields, fixed capacity, zero steady-state allocs.
	rounds := make([]RoundTrace, len(me.Projs))

	// The first stage to fail cancels the rank's context with its error;
	// every channel send selects on it, so the other two stages unwind too,
	// and the rank reports that first error (an external cancel reports
	// ctx's own).
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	fail := func(err error) {
		if err != nil {
			cancel(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)

	// --- Filtering thread (Fig. 4a, left): load + filter own projections
	// in round order and feed the Main thread through chA, which it owns.
	// Each projection's staged bytes are looked up on the PFS without a
	// copy (the load stage) and filtered straight into a pooled transposed
	// block (Alg. 4 line 3) by ApplyEncoded, which checks and reads the
	// encoding itself: decoding is part of the filter stage, and there is
	// no decoded or filtered image. The block is what every column peer
	// back-projects, so nobody transposes it again. Zero per-projection
	// heap allocations in the filter. chA's capacity (QueueDepth) lets
	// filtering run that many rounds ahead of the AllGather.
	chA := make(chan projItem, QueueDepth)
	go func() {
		defer wg.Done()
		defer close(chA)
		fail(func() error {
			flt, err := filter.Cached(g, cfg.Window)
			if err != nil {
				return err
			}
			for r, s := range me.Projs {
				if err := context.Cause(ctx); err != nil {
					return err
				}
				roundOff := time.Since(start)
				loadStart := time.Now()
				blob, _, err := store.Peek(pfs.ProjectionPath(cfg.InputPrefix, s))
				if err != nil {
					return fmt.Errorf("rank %d: %w", c.Rank(), err)
				}
				t.Load += time.Since(loadStart)
				fltStart := time.Now()
				blk := engine.Blocks.Acquire(g.Nu * g.Nv)
				if err := flt.ApplyEncoded(blob, blk.Data); err != nil {
					blk.Release()
					return fmt.Errorf("rank %d: projection %d: %w", c.Rank(), s, err)
				}
				t.Filter += time.Since(fltStart)
				rounds[r].FilterOff = roundOff
				rounds[r].FilterDur = time.Since(start) - roundOff
				select {
				case chA <- projItem{s: s, buf: blk}:
				case <-ctx.Done():
					blk.Release()
					return context.Cause(ctx)
				}
			}
			return nil
		}())
	}()

	// --- Back-projection thread (Fig. 4a, right), on the column's lead
	// only: batch incoming filtered projections and sweep each batch once
	// at the column's full half-height, [0, R·h), on R workers — as many as
	// the column has ranks — adding it into every rank's slab pair, reading
	// the shared transposed blocks in place. The column's other ranks gather
	// the same blocks in the same order, so a pass of their own would give
	// the same bits: they release their holds instead. chB holds QueueDepth
	// rounds of R blocks each, the same look-ahead as chA.
	chB := make(chan projItem, QueueDepth*len(me.Column))
	if lead {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every rank of the column hands its slab pair over first
			// thing, so this wait is short.
			col.ready.Wait()
			fail(func() error {
				var imgs []*volume.Image
				var mats []geometry.ProjMat
				var bufs []*engine.Buf[float32]
				hdrs := make([]volume.Image, backproject.DefaultBatch) // Nv×Nu views of bufs
				releaseBufs := func() {
					for _, b := range bufs {
						b.Release()
					}
					bufs = bufs[:0]
				}
				flush := func() error {
					if len(imgs) == 0 {
						return nil
					}
					bpStart := time.Now()
					task := backproject.Task{Mats: mats, Proj: imgs, Transposed: true}
					err := backproject.ProposedSlabs(task, col.slabs, backproject.Options{Workers: len(col.slabs)}, g.Nz)
					// The batch is consumed (or abandoned) either way: this
					// rank's holds on its shared blocks are released.
					releaseBufs()
					if err != nil {
						return err
					}
					t.Backproject += time.Since(bpStart)
					imgs, mats = imgs[:0], mats[:0]
					return nil
				}
				for {
					var it projItem
					var ok bool
					select {
					case it, ok = <-chB:
					case <-ctx.Done():
						releaseBufs()
						return context.Cause(ctx)
					}
					if !ok {
						return flush()
					}
					hdrs[len(imgs)] = volume.Image{W: g.Nv, H: g.Nu, Data: it.buf.Data}
					imgs = append(imgs, &hdrs[len(imgs)])
					bufs = append(bufs, it.buf)
					mats = append(mats, geometry.ProjectionMatrix(g, g.Beta(it.s)))
					if len(imgs) == backproject.DefaultBatch {
						if err := flush(); err != nil {
							return err
						}
					}
				}
			}())
		}()
	}

	// --- Main thread: one AllGather per projection round (Sec. 4.1.3);
	// round r exchanges each column rank's r-th filtered projection, in the
	// plan's gather order. It owns chB and closes it once its own error, if
	// any, is recorded.
	fail(func() error {
		for r, want := range me.Projs {
			if err := context.Cause(ctx); err != nil {
				return err
			}
			it, ok := <-chA
			if !ok {
				return fmt.Errorf("rank %d: filtering ended early at round %d", c.Rank(), r)
			}
			if it.s != want {
				it.buf.Release()
				return fmt.Errorf("rank %d: projection %d out of order (want %d)", c.Rank(), it.s, want)
			}
			agOff := time.Since(start)
			agStart := time.Now()
			// The block goes round the column by reference: every peer
			// ends up holding it (and this rank every peer's), no copies.
			blocks, err := colComm.AllGatherShared(it.buf)
			if err != nil {
				return err
			}
			t.AllGather += time.Since(agStart)
			rounds[r].GatherOff = agOff
			rounds[r].GatherDur = time.Since(agStart)
			if !lead {
				for _, blk := range blocks {
					blk.Release()
				}
				tick()
				continue
			}
			for i, blk := range blocks {
				select {
				case chB <- projItem{s: plan.Ranks[me.Column[i]].Projs[r], buf: blk}:
				case <-ctx.Done():
					for _, rest := range blocks[i:] {
						rest.Release() // never sent: back to the pool here
					}
					return context.Cause(ctx)
				}
			}
			tick()
		}
		return nil
	}())
	close(chB)
	wg.Wait()
	err = context.Cause(ctx)
	if lead {
		col.failed = err != nil
		close(col.swept)
	} else if err == nil {
		// The column's sweep fills this rank's slab pair too: it is
		// complete once the lead's sweep has ended, and the wait counts
		// in the rank's Compute.
		<-col.swept
		if col.failed {
			err = fmt.Errorf("rank %d: the column's back-projection sweep did not finish", c.Rank())
		}
	}
	if err != nil {
		// Unwind without leaking pooled buffers: holds on blocks stranded in
		// either channel (both closed by their owners by now) go back — the
		// engine's in-use gauges feed admission metrics, so failed and
		// cancelled jobs must balance their books too. The slab pair may
		// still be in the lead's sweep: RunContext releases it once every
		// rank has returned.
		for _, ch := range []chan projItem{chA, chB} {
			for it := range ch {
				it.buf.Release()
			}
		}
		return t, nil, nil, err
	}
	t.Compute = time.Since(start)

	// --- Epilogue (Fig. 4b): reduce the row's partial volumes into the row
	// root's own slab pair, lay it out once in plane order, store the output
	// slices straight from that buffer and hand each to SliceWritten, and
	// optionally assemble the full volume at rank 0 from whole planes. The
	// plane buffer is a pooled block, released here or handed to rank 0 via
	// SendBuf — no per-job heap copies but the assembled volume itself.
	redStart := time.Now()
	err = rowComm.ReduceInPlace(0, local.Data, mpi.OpSum)
	t.Reduce = time.Since(redStart)
	if err != nil || rowComm.Rank() != 0 || cfg.OutputPrefix == "" && !cfg.AssembleVolume && cfg.SliceWritten == nil {
		// Off the row root the payload was copied into the tree's block, so
		// the slab pair goes back for the next job either way.
		release()
		if err != nil {
			return t, nil, nil, err
		}
		t.Total = time.Since(start)
		return t, nil, rounds, nil
	}

	// Row root. The transpose from k-major into plane order counts as store:
	// it is how the slices are laid out.
	storeStart := time.Now()
	planes := engine.Blocks.Acquire(len(local.Data))
	volume.KMajorToIMajor(planes.Data, local.Data, g.Nx, g.Ny, 2*h)
	release()
	// Released on every exit path unless its ownership has been handed off
	// (planes set to nil below).
	defer func() { planes.Release() }()
	nxy := g.Nx * g.Ny
	if cfg.OutputPrefix != "" || cfg.SliceWritten != nil {
		for p, globalZ := range backproject.SlabPlanes(g.Nz, me.Z0, me.Z1) {
			// Honour cancellation between slices so an aborted job
			// stops publishing output (and slice callbacks) promptly.
			if err := ctx.Err(); err != nil {
				return t, nil, nil, err
			}
			slice := volume.Image{W: g.Nx, H: g.Ny, Data: planes.Data[p*nxy : (p+1)*nxy]}
			if cfg.OutputPrefix != "" {
				if _, err := store.WriteSlice(cfg.OutputPrefix, globalZ, &slice); err != nil {
					return t, nil, nil, err
				}
			}
			sliceTick(globalZ, &slice)
		}
	}
	t.Store = time.Since(storeStart)

	var full *volume.Volume
	if cfg.AssembleVolume {
		if c.Rank() == 0 {
			full = volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
			if err := backproject.PlaceSlabPair(full, planes.Data, me.Z0, me.Z1); err != nil {
				return t, nil, nil, err
			}
			for _, root := range me.Column { // column 0: every row's root
				if root == c.Rank() {
					continue
				}
				blk, err := c.RecvBuf(root, tagAssemble)
				if err != nil {
					return t, nil, nil, err
				}
				err = backproject.PlaceSlabPair(full, blk.Data, plan.Ranks[root].Z0, plan.Ranks[root].Z1)
				blk.Release()
				if err != nil {
					return t, nil, nil, err
				}
			}
		} else {
			// SendBuf transfers ownership of the plane buffer to rank 0's
			// mailbox zero-copy — clear planes first so the deferred
			// release does not double-free it.
			blk := planes
			planes = nil
			if err := c.SendBuf(0, tagAssemble, blk); err != nil {
				return t, nil, nil, err
			}
		}
	}
	t.Total = time.Since(start)
	return t, full, rounds, nil
}
