package core

import (
	"context"
	"fmt"
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
// aborts, the three pipeline goroutines of every rank drain and exit, and
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
	sliceTick := func(int) {}
	if cfg.SliceWritten != nil && cfg.OutputPrefix != "" {
		total := cfg.Geometry.Nz // every row root stores its slab pair once
		var mu sync.Mutex
		written := 0
		sliceTick = func(z int) {
			mu.Lock()
			written++
			cfg.SliceWritten(z, written, total)
			mu.Unlock()
		}
	}

	err = mpi.RunContext(ctx, n, func(c *mpi.Comm) error {
		t, vol, rounds, err := runRank(ctx, cfg, plan, store, c, tick, sliceTick)
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

// runRank is the body of one MPI rank, executing its entry of plan: the
// three-thread pipeline of Fig. 4a followed by the reduce/store epilogue of
// Fig. 4b. tick is called once per completed AllGather round for progress
// reporting; sliceTick once per output slice written to the PFS, with its
// global z index.
func runRank(ctx context.Context, cfg Config, plan Plan, store *pfs.PFS, c *mpi.Comm, tick func(), sliceTick func(z int)) (StageTimes, *volume.Volume, []RoundTrace, error) {
	var t StageTimes
	g := cfg.Geometry
	me := plan.Ranks[c.Rank()]
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
	h := me.Z1 - me.Z0

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
	wg.Add(2)

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

	// --- Back-projection thread (Fig. 4a, right): batch incoming filtered
	// projections and accumulate them into the rank's slab-pair volume,
	// reading the shared transposed blocks in place. chB holds QueueDepth
	// rounds of R blocks each, the same look-ahead as chA.
	chB := make(chan projItem, QueueDepth*len(me.Column))
	local := engine.Volumes.Acquire(g.Nx, g.Ny, 2*h, volume.KMajor)
	go func() {
		defer wg.Done()
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
				err := backproject.ProposedSlabPair(task, local, backproject.Options{Workers: 1}, g.Nz, me.Z0, me.Z1)
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
	if err := context.Cause(ctx); err != nil {
		// Unwind without leaking pooled buffers: holds on blocks stranded in
		// either channel (both closed by their owners by now) and the rank's
		// slab-pair volume go back — the engine's in-use gauges feed
		// admission metrics, so failed and cancelled jobs must balance their
		// books too.
		for _, ch := range []chan projItem{chA, chB} {
			for it := range ch {
				it.buf.Release()
			}
		}
		engine.Volumes.Release(local)
		return t, nil, nil, err
	}
	t.Compute = time.Since(start)

	// --- Epilogue (Fig. 4b): reduce the row's partial volumes into the row
	// root's own slab pair, lay it out once in plane order, store the output
	// slices straight from that buffer, and optionally assemble the full
	// volume at rank 0 from whole planes. The plane buffer is a pooled
	// block, released here or handed to rank 0 via SendBuf — no per-job heap
	// copies but the assembled volume itself.
	redStart := time.Now()
	err = rowComm.ReduceInPlace(0, local.Data, mpi.OpSum)
	t.Reduce = time.Since(redStart)
	if err != nil || rowComm.Rank() != 0 || cfg.OutputPrefix == "" && !cfg.AssembleVolume {
		// Off the row root the payload was copied into the tree's block, so
		// the slab pair goes back for the next job either way.
		engine.Volumes.Release(local)
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
	engine.Volumes.Release(local)
	// Released on every exit path unless its ownership has been handed off
	// (planes set to nil below).
	defer func() { planes.Release() }()
	nxy := g.Nx * g.Ny
	if cfg.OutputPrefix != "" {
		for p, globalZ := range backproject.SlabPlanes(g.Nz, me.Z0, me.Z1) {
			// Honour cancellation between slices so an aborted job
			// stops publishing output (and slice callbacks) promptly.
			if err := ctx.Err(); err != nil {
				return t, nil, nil, err
			}
			slice := volume.Image{W: g.Nx, H: g.Ny, Data: planes.Data[p*nxy : (p+1)*nxy]}
			if _, err := store.WriteSlice(cfg.OutputPrefix, globalZ, &slice); err != nil {
				return t, nil, nil, err
			}
			sliceTick(globalZ)
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
