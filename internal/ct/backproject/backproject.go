// Package backproject implements the back-projection stage of FDK on the
// CPU: the standard algorithm of the paper's Alg. 2 (the scheme used by RTK
// and RabbitCT) and the proposed algorithm of Alg. 4, which
//
//   - reuses u and the distance weight W_dis along each vertical voxel line
//     (Theorems 2 and 3: both are independent of k),
//   - computes only one of the three inner products per voxel (the y row),
//   - processes only half of the Z range and derives the mirrored detector
//     row ṽ = Nv-1-v for the symmetric voxel (Theorem 1), and
//   - transposes the projections and stores the volume k-major so both are
//     walked contiguously.
//
// Together these reduce the projection-coordinate computation to 1/6 of the
// standard algorithm (Sec. 3.2.2).
//
// All arithmetic is float32 to match the GPU kernels; projection matrices
// are narrowed per Listing 1's constant-memory layout. Both algorithms
// accumulate per voxel in ascending projection order, so results are
// deterministic and independent of the worker count.
package backproject

import (
	"fmt"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/interp"
	"ifdk/internal/engine"
	"ifdk/pkg/volume"
)

// Pooled per-batch and per-worker scratch. Parallel sections run on the
// shared engine scheduler, and every buffer whose lifetime is one batch (the
// narrowed matrices, the projection-data table, the transposed projections)
// or one worker chunk (the column register files of Listing 1 and the tile
// accumulator) is
// acquired from an engine pool, so steady-state back-projection performs no
// per-projection heap allocations.
var (
	matPool  engine.BufPool[[3][4]float32]
	dataPool engine.BufPool[[]float32]
	imgsPool engine.BufPool[*volume.Image]
	colPool  engine.BufPool[float32]
)

// DefaultBatch is the number of projections accumulated per volume pass,
// matching the GPU kernels' N_batch = 32 (Listing 1).
const DefaultBatch = 32

// Task bundles the filtered projections with their projection matrices.
type Task struct {
	Mats []geometry.ProjMat
	Proj []*volume.Image // filtered projections Q_i, each Nu×Nv
	// Transposed says the projections are already transposed (Alg. 4
	// line 3): each image is Nv×Nu, V the fast axis. The filter's
	// ApplyEncoded and ApplyImage write this layout; Proposed and
	// ProposedSlabPair read such a task as it is instead of transposing it
	// per batch, and Standard rejects it.
	Transposed bool
}

// Validate reports structural problems with the task.
func (t Task) Validate() error {
	if len(t.Mats) == 0 {
		return fmt.Errorf("backproject: empty task")
	}
	if len(t.Mats) != len(t.Proj) {
		return fmt.Errorf("backproject: %d matrices for %d projections", len(t.Mats), len(t.Proj))
	}
	for n, p := range t.Proj {
		if p == nil {
			return fmt.Errorf("backproject: projection %d is nil", n)
		}
	}
	w, h := t.Proj[0].W, t.Proj[0].H
	for n, p := range t.Proj {
		if p.W != w || p.H != h {
			return fmt.Errorf("backproject: projection %d is %dx%d, want %dx%d", n, p.W, p.H, w, h)
		}
	}
	return nil
}

// Options controls parallelism. Every entry point accumulates DefaultBatch
// projections per volume pass.
type Options struct {
	Workers int // worker goroutines; 0 means GOMAXPROCS
}

// Standard back-projects the task into an i-major volume following Alg. 2
// exactly: three inner products and a full interpolation per voxel per
// projection. Parallelism is over Z slabs; accumulation per voxel stays in
// ascending projection order.
func Standard(task Task, vol *volume.Volume, opt Options) error {
	if err := task.Validate(); err != nil {
		return err
	}
	if vol.Layout != volume.IMajor {
		return fmt.Errorf("backproject: Standard requires an i-major volume, got %v", vol.Layout)
	}
	if task.Transposed {
		return fmt.Errorf("backproject: Standard requires untransposed projections")
	}
	nx, ny, nz := vol.Nx, vol.Ny, vol.Nz
	w, h := task.Proj[0].W, task.Proj[0].H
	for s0 := 0; s0 < len(task.Proj); s0 += DefaultBatch {
		s1 := min(s0+DefaultBatch, len(task.Proj))
		bufs := acquireBatch(task.Mats[s0:s1], task.Proj[s0:s1], false)
		rows, data := bufs.rows.Data, bufs.data.Data
		engine.ParallelRange(nz, opt.Workers, func(k0, k1 int) {
			for k := k0; k < k1; k++ {
				fk := float32(k)
				for j := 0; j < ny; j++ {
					fj := float32(j)
					base := (k*ny + j) * nx
					for i := 0; i < nx; i++ {
						fi := float32(i)
						var sum float32
						for t := range rows {
							r := &rows[t]
							// Three inner products (Alg. 2 line 6).
							x := float32(r[0][0]*fi) + float32(r[0][1]*fj) + float32(r[0][2]*fk) + r[0][3]
							y := float32(r[1][0]*fi) + float32(r[1][1]*fj) + float32(r[1][2]*fk) + r[1][3]
							z := float32(r[2][0]*fi) + float32(r[2][1]*fj) + float32(r[2][2]*fk) + r[2][3]
							f := 1 / z
							wdis := f * f
							u := x * f
							v := float32(y * f)
							sum += float32(wdis * interp.Bilinear(data[t], w, h, u, v))
						}
						vol.Data[base+i] += sum
					}
				}
			}
		})
		bufs.release()
	}
	return nil
}

// Proposed back-projects the task into a k-major volume following Alg. 4,
// on the driver ProposedSlabPair runs: the whole volume is the one-row slab
// pair [0, Nz/2), plus the unpaired centre plane when Nz is odd. The task
// may be Transposed.
func Proposed(task Task, vol *volume.Volume, opt Options) error {
	if err := task.Validate(); err != nil {
		return err
	}
	if vol.Layout != volume.KMajor {
		return fmt.Errorf("backproject: Proposed requires a k-major volume, got %v", vol.Layout)
	}
	slabPair(task, []Slab{{Vol: vol, Z0: 0, Z1: vol.Nz / 2}}, opt)
	return nil
}

// batchBufs bundles the pooled per-batch state shared by all kernels: the
// narrowed matrices, the projection-data table, and (when transposing) the
// transposed projections. Acquire with acquireBatch, release with release —
// the pool-ownership choreography lives here and nowhere else.
type batchBufs struct {
	rows       *engine.Buf[[3][4]float32]
	data       *engine.Buf[[]float32]
	transposed *engine.Buf[*volume.Image]
}

// acquireBatch narrows the batch's matrices and builds its projection-data
// table, transposing each projection into a pooled image when transpose is
// set (Alg. 4 line 3).
func acquireBatch(mats []geometry.ProjMat, imgs []*volume.Image, transpose bool) batchBufs {
	b := batchBufs{rows: narrowMats(mats)}
	if transpose {
		b.transposed = transposeBatch(imgs)
		b.data = dataPool.Acquire(len(imgs))
		for t, tp := range b.transposed.Data {
			b.data.Data[t] = tp.Data
		}
	} else {
		b.data = projData(imgs)
	}
	return b
}

// release returns every pooled buffer of the batch.
func (b batchBufs) release() {
	releaseData(b.data)
	releaseTransposed(b.transposed)
	b.rows.Release()
}

// acquireRegs hands out one worker chunk's register files (the U, Z, W_dis
// registers of Listing 1): three nb-wide rows carved from a single pooled
// buffer. Release the returned buffer when the chunk completes.
func acquireRegs(nb int) (regs *engine.Buf[float32], us, fs, ws []float32) {
	regs = colPool.Acquire(3 * nb)
	return regs, regs.Data[:nb], regs.Data[nb : 2*nb], regs.Data[2*nb:]
}

// narrowMats fills a pooled table with the float32-narrowed matrix rows of
// one batch (Listing 1's constant-memory layout).
func narrowMats(mats []geometry.ProjMat) *engine.Buf[[3][4]float32] {
	buf := matPool.Acquire(len(mats))
	for n, m := range mats {
		buf.Data[n] = m.Rows32()
	}
	return buf
}

// projData fills a pooled table with the batch's projection payloads.
func projData(imgs []*volume.Image) *engine.Buf[[]float32] {
	buf := dataPool.Acquire(len(imgs))
	for n, p := range imgs {
		buf.Data[n] = p.Data
	}
	return buf
}

// releaseData clears the payload references (so the pool does not pin the
// projections until the next batch) and releases the table.
func releaseData(buf *engine.Buf[[]float32]) {
	clear(buf.Data)
	buf.Release()
}

// transposeBatch transposes every projection of a batch into pooled images.
func transposeBatch(imgs []*volume.Image) *engine.Buf[*volume.Image] {
	buf := imgsPool.Acquire(len(imgs))
	for t, p := range imgs {
		tp := engine.Images.Acquire(p.H, p.W)
		p.TransposeInto(tp)
		buf.Data[t] = tp
	}
	return buf
}

// releaseTransposed returns the batch's transpose buffers to the image pool
// (nil when the batch was not transposed).
func releaseTransposed(buf *engine.Buf[*volume.Image]) {
	if buf == nil {
		return
	}
	for t, tp := range buf.Data {
		engine.Images.Release(tp)
		buf.Data[t] = nil
	}
	buf.Release()
}
