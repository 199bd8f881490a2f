package backproject

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/internal/engine"
	"ifdk/pkg/volume"
)

// Slab pairs over all rows must tile the full volume and reproduce the
// full-volume reconstruction bit for bit: each voxel sums the same
// projections in the same order whichever row owns it.
func TestSlabPairsTileFullVolume(t *testing.T) {
	g := geometry.Default(48, 48, 24, 16, 16, 16)
	task := randomTask(g, 21)
	full := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	if err := Proposed(task, full, Options{}); err != nil {
		t.Fatal(err)
	}
	fullI := full.Reshape(volume.IMajor)
	for _, r := range []int{1, 2, 4, 8} {
		h := g.Nz / (2 * r)
		assembled := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
		for row := 0; row < r; row++ {
			z0, z1 := row*h, (row+1)*h
			local := volume.New(g.Nx, g.Ny, 2*h, volume.KMajor)
			if err := ProposedSlabPair(task, local, Options{}, g.Nz, z0, z1); err != nil {
				t.Fatalf("R=%d row=%d: %v", r, row, err)
			}
			if err := PlaceSlabPair(assembled, local.Reshape(volume.IMajor).Data, z0, z1); err != nil {
				t.Fatal(err)
			}
		}
		for n := range fullI.Data {
			if math.Float32bits(assembled.Data[n]) != math.Float32bits(fullI.Data[n]) {
				t.Fatalf("R=%d: voxel %d = %v assembled from slab pairs, %v from Proposed", r, n, assembled.Data[n], fullI.Data[n])
			}
		}
	}
}

func TestSlabPairValidation(t *testing.T) {
	g := geometry.Default(32, 32, 8, 8, 8, 8)
	task := randomTask(g, 22)
	if err := ProposedSlabPair(task, volume.New(8, 8, 4, volume.IMajor), Options{}, 8, 0, 2); err == nil {
		t.Error("i-major local volume accepted")
	}
	if err := ProposedSlabPair(task, volume.New(8, 8, 4, volume.KMajor), Options{}, 7, 0, 2); err == nil {
		t.Error("odd Nz accepted")
	}
	if err := ProposedSlabPair(task, volume.New(8, 8, 4, volume.KMajor), Options{}, 8, 2, 6); err == nil {
		t.Error("slab outside half-range accepted")
	}
	if err := ProposedSlabPair(task, volume.New(8, 8, 6, volume.KMajor), Options{}, 8, 0, 2); err == nil {
		t.Error("wrong local depth accepted")
	}
	planes := make([]float32, 8*8*4)
	if err := PlaceSlabPair(volume.New(8, 8, 6, volume.IMajor), planes, 2, 4); err == nil {
		t.Error("slab past the global volume's half accepted")
	}
	if err := PlaceSlabPair(volume.New(4, 4, 8, volume.IMajor), planes, 0, 2); err == nil {
		t.Error("mismatched XY accepted")
	}
	if err := PlaceSlabPair(volume.New(8, 8, 8, volume.KMajor), planes, 0, 2); err == nil {
		t.Error("k-major global volume accepted")
	}
	if err := PlaceSlabPair(volume.New(8, 8, 8, volume.IMajor), planes, 0, 2); err != nil {
		t.Errorf("fitting slab pair refused: %v", err)
	}
}

func TestSlabPlanes(t *testing.T) {
	got := SlabPlanes(16, 2, 4)
	want := []int{2, 3, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("planes %v", got)
	}
	for n := range want {
		if got[n] != want[n] {
			t.Errorf("plane %d = %d, want %d", n, got[n], want[n])
		}
	}
}

// slabPairColumnOrder is slabPair as it was before tiling, kept as the
// reference the tile order must reproduce bit for bit: workers take whole
// j-rows of columns, and each column runs the batch's projections in turn
// into its own line pair, with the column geometry and the per-voxel
// inner product and bilinear fetch spelled out inline.
func slabPairColumnOrder(task Task, vol *volume.Volume, opt Options, z0, z1 int) {
	nx, ny, nz := vol.Nx, vol.Ny, vol.Nz
	w, ht := task.Proj[0].W, task.Proj[0].H
	if task.Transposed {
		w, ht = ht, w
	}
	vm1 := float32(ht - 1)
	h := z1 - z0
	for s0 := 0; s0 < len(task.Proj); s0 += DefaultBatch {
		s1 := min(s0+DefaultBatch, len(task.Proj))
		bufs := acquireBatch(task.Mats[s0:s1], task.Proj[s0:s1], !task.Transposed)
		rows, data := bufs.rows.Data, bufs.data.Data
		engine.ParallelRange(ny, opt.Workers, func(j0, j1 int) {
			nb := len(rows)
			us, fs, ws := make([]float32, nb), make([]float32, nb), make([]float32, nb)
			sum, sym := make([]float32, h), make([]float32, h)
			for j := j0; j < j1; j++ {
				fj := float32(j)
				for i := 0; i < nx; i++ {
					fi := float32(i)
					for t := range rows {
						r := &rows[t]
						x := r[0][0]*fi + r[0][1]*fj + r[0][3]
						z := r[2][0]*fi + r[2][1]*fj + r[2][3]
						f := 1 / z
						us[t], fs[t], ws[t] = x*f, f, f*f
					}
					clear(sum)
					clear(sym)
					for t := range rows {
						r := &rows[t]
						yb := r[1][0]*fi + r[1][1]*fj
						for kk := range sum {
							fk := float32(z0 + kk)
							v := (yb + r[1][2]*fk + r[1][3]) * fs[t]
							sum[kk] += ws[t] * sampleProj(data[t], ht, w, us[t], v, true)
							sym[kk] += ws[t] * sampleProj(data[t], ht, w, us[t], vm1-v, true)
						}
					}
					base := (i*ny + j) * nz
					for kk := 0; kk < h; kk++ {
						vol.Data[base+kk] += sum[kk]
						vol.Data[base+nz-1-kk] += sym[kk]
					}
					if nz%2 == 1 {
						fk := float32(h)
						var csum float32
						for t := range rows {
							r := &rows[t]
							y := r[1][0]*fi + r[1][1]*fj + r[1][2]*fk + r[1][3]
							csum += ws[t] * sampleProj(data[t], ht, w, us[t], y*fs[t], true)
						}
						vol.Data[base+h] += csum
					}
				}
			}
		})
		bufs.release()
	}
}

// The tiled driver must give the column-order loop's volume bit for bit:
// column counts that leave ragged tiles on both axes (13×21, and 16×21: a
// fleet_mixed nx with a ragged Ny), exactly one tile and a single column;
// even-Nz slab pairs at R = 1, 2, 4 and 8 — Nz 16 and 32, so slab depths
// h = 1, 2, 4 and 8, the ones fleet_mixed runs (nx 16 and 32 at R = 2, 4
// and 8), and 16 — and odd-Nz whole volumes; 40 projections (a full batch,
// then a short one); 1 and 3 workers; detector-layout and pre-transposed
// tasks. Both volumes start from the same non-zero contents, so the
// once-per-batch add shows too.
func TestSlabPairTileOrderBitIdentical(t *testing.T) {
	for _, xy := range [][2]int{{13, 21}, {16, 21}, {8, 8}, {1, 1}} {
		for _, nz := range []int{16, 32, 15} {
			g := geometry.Default(40, 23, 40, xy[0], xy[1], nz)
			task := randomTask(g, int64(xy[0]*100+nz))
			var pairs [][2]int
			if nz%2 == 1 {
				pairs = [][2]int{{0, nz / 2}}
			} else {
				for _, r := range []int{1, 2, 4, 8} {
					h := nz / (2 * r)
					for row := 0; row < r; row++ {
						pairs = append(pairs, [2]int{row * h, (row + 1) * h})
					}
				}
			}
			for _, tk := range []Task{task, transposedTask(task)} {
				for _, workers := range []int{1, 3} {
					for _, zs := range pairs {
						z0, z1 := zs[0], zs[1]
						want := volume.New(g.Nx, g.Ny, 2*(z1-z0)+nz%2, volume.KMajor)
						rng := rand.New(rand.NewSource(int64(z0)))
						for n := range want.Data {
							want.Data[n] = rng.Float32()
						}
						got := want.Clone()
						opt := Options{Workers: workers}
						slabPairColumnOrder(tk, want, opt, z0, z1)
						slabPair(tk, got, opt, z0, z1)
						for n := range want.Data {
							if math.Float32bits(got.Data[n]) != math.Float32bits(want.Data[n]) {
								t.Fatalf("%dx%dx%d slab [%d,%d) transposed=%v workers=%d: voxel %d = %v, column order gives %v",
									g.Nx, g.Ny, nz, z0, z1, tk.Transposed, workers, n, got.Data[n], want.Data[n])
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkSlabPair times one rank's back-projection pass: one op is a
// batch of 32 pre-transposed projections into a rank row's slab pair on one
// worker, as the pipeline calls it, reported per voxel update. The shapes
// are the slab depths the benchmark workloads run: h = 2, 4 and 8 are
// fleet_mixed's (nx 16 at R = 4 and 2, nx 32 at R = 2; detector 2·nx),
// h = 16 its nx = 32 verification volume on one rank row, h = 32
// volume_heavy's (128³ from 256² on a 2×2 grid) and h = 64 the same volume
// on one rank row; h=8/512 is projection_heavy's (nx 32 from a 512²
// detector at R = 2), whose 17.9 rows per plane keep it on the gather
// kernel. Each times the second rank row's pair; the outer legs time row 0
// (z0 = 0), whose outer planes reach the detector's top and bottom rows.
// Unlike BenchmarkKernelsAccumColumns it includes the detector-row reuse
// between neighbouring columns that the tile order exists for.
func BenchmarkSlabPair(b *testing.B) {
	for _, shape := range []struct {
		nx, nu, r int // nu 0: a 2·nx detector
		outer     bool
	}{
		{16, 0, 4, false}, {16, 0, 2, false}, {32, 0, 2, false}, {32, 0, 2, true}, {32, 512, 2, false},
		{32, 0, 1, false}, {128, 0, 2, false}, {128, 0, 2, true}, {128, 0, 1, false},
	} {
		nu := shape.nu
		if nu == 0 {
			nu = 2 * shape.nx
		}
		g := geometry.Default(nu, nu, 320, shape.nx, shape.nx, shape.nx)
		h := g.Nz / (2 * shape.r)
		z0, name := h, fmt.Sprintf("h=%d", h)
		if shape.r == 1 || shape.outer {
			z0 = 0
		}
		if shape.outer {
			name += "/outer"
		}
		if shape.nu != 0 {
			name += fmt.Sprintf("/%d", nu)
		}
		z1 := z0 + h
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(34))
			task := Task{Mats: geometry.ProjectionMatrices(g)[:DefaultBatch], Transposed: true}
			for range task.Mats {
				img := volume.NewImage(g.Nv, g.Nu)
				for n := range img.Data {
					img.Data[n] = rng.Float32()
				}
				task.Proj = append(task.Proj, img)
			}
			vol := volume.New(g.Nx, g.Ny, 2*h, volume.KMajor)
			opt := Options{Workers: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ProposedSlabPair(task, vol, opt, g.Nz, z0, z1); err != nil {
					b.Fatal(err)
				}
			}
			updates := float64(vol.NumVoxels()) * float64(len(task.Proj)) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/updates, "ns/update")
		})
	}
}

// transposedTask is task with every projection transposed once up front —
// what the distributed pipeline's producers hand back-projection.
func transposedTask(task Task) Task {
	out := Task{Mats: task.Mats, Transposed: true}
	for _, p := range task.Proj {
		out.Proj = append(out.Proj, p.Transpose())
	}
	return out
}

// A pre-transposed task must back-project bit for bit like the detector-
// layout task it came from, on a non-square detector with odd Nv (so a
// W/H swap anywhere in the hand-off shows) and an Np of 40, which
// DefaultBatch does not divide (a full batch, then a short one): through
// ProposedSlabPair on two slab pairs, and through Proposed on whole volumes
// of even Nz and of odd Nz, whose centre plane has no mirror.
func TestTransposedTaskBitIdentical(t *testing.T) {
	g := geometry.Default(40, 23, 40, 16, 16, 16)
	task := randomTask(g, 41)
	tt := transposedTask(task)
	opt := Options{Workers: 3}
	same := func(name string, got, want *volume.Volume) {
		t.Helper()
		for n := range want.Data {
			if math.Float32bits(got.Data[n]) != math.Float32bits(want.Data[n]) {
				t.Fatalf("%s: transposed task differs at voxel %d: %g vs %g", name, n, got.Data[n], want.Data[n])
			}
		}
	}
	for _, zs := range [][2]int{{0, 8}, {3, 5}} {
		z0, z1 := zs[0], zs[1]
		want := volume.New(g.Nx, g.Ny, 2*(z1-z0), volume.KMajor)
		got := volume.New(g.Nx, g.Ny, 2*(z1-z0), volume.KMajor)
		if err := ProposedSlabPair(task, want, opt, g.Nz, z0, z1); err != nil {
			t.Fatal(err)
		}
		if err := ProposedSlabPair(tt, got, opt, g.Nz, z0, z1); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("slab [%d,%d)", z0, z1), got, want)
	}
	for _, nz := range []int{16, 15} {
		g := g
		g.Nz = nz
		task := Task{Mats: geometry.ProjectionMatrices(g), Proj: task.Proj}
		tt := Task{Mats: task.Mats, Proj: tt.Proj, Transposed: true}
		want := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
		got := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
		if err := Proposed(task, want, opt); err != nil {
			t.Fatal(err)
		}
		if err := Proposed(tt, got, opt); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("Proposed, Nz = %d", nz), got, want)
	}
	// Standard and the ablation variants read the detector layout and
	// refuse it.
	if err := Standard(tt, volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor), opt); err == nil {
		t.Error("Standard accepted a transposed task")
	}
	if err := Ablate(tt, volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor), opt, Variant{Reuse: true, Transpose: true}); err == nil {
		t.Error("an ablation variant accepted a transposed task")
	}
}

// TestWindowDispatch pins which kernel slabPair picks for the workloads'
// slab pairs: on a host with the window tier, volume_heavy's (128³ from
// 256², R = 2, h = 32) and progressive_stream's must take
// kernels.AccumColumnsWindow — a dispatcher that never does passes every
// bit-identity test while losing the speed — and so must fleet_mixed's
// slabs, whose 1.9 rows per plane let an h-depth half-column fit a
// 2h-sample window: its distributed h = 8 (nx 32 at R = 2) and h = 4 (nx 32
// at R = 4, nx 16 at R = 2) slabs, the serial reference of a verified
// nx = 16 job (fdk.Reconstruct: the whole 16³ volume from 32² is one slab
// pair, h = 8) and of a verified nx = 32 one (h = 16). fleet_mixed's h = 2
// slabs (nx 16 at R = 4), projection_heavy's (nx 32 on 512², R = 2: h = 8,
// 17.9 rows per plane), a 31-row detector and geometries too steep for the
// window keep the gather kernel. Without the tier nothing takes the window.
func TestWindowDispatch(t *testing.T) {
	for _, c := range []struct {
		name   string
		g      geometry.Params
		h      int
		window bool
	}{
		{"volume_heavy", geometry.Default(256, 256, 320, 128, 128, 128), 32, true},
		{"progressive_stream", geometry.Default(256, 256, 256, 128, 128, 128), 32, true},
		{"fleet_mixed verification nx=32", geometry.Default(64, 64, 64, 32, 32, 32), 16, true},
		{"fleet_mixed verification nx=16", geometry.Default(32, 32, 32, 16, 16, 16), 8, true},
		{"fleet_mixed nx=32 R=2", geometry.Default(64, 64, 64, 32, 32, 32), 8, true},
		{"fleet_mixed nx=32 R=4", geometry.Default(64, 64, 64, 32, 32, 32), 4, true},
		{"fleet_mixed nx=16 R=2", geometry.Default(32, 32, 32, 16, 16, 16), 4, true},
		{"fleet_mixed nx=16 R=4", geometry.Default(32, 32, 32, 16, 16, 16), 2, false},
		{"projection_heavy", geometry.Default(512, 512, 256, 32, 32, 32), 8, false},
		{"2.1 rows per plane, h=8", geometry.Default(64, 68, 40, 24, 24, 32), 8, false},
		{"Nv=31", geometry.Default(48, 31, 40, 24, 24, 32), 16, false},
		{"10 rows per plane", geometry.Default(64, 320, 40, 24, 24, 32), 16, false},
	} {
		step := maxVStep(geometry.ProjectionMatrices(c.g), c.g.Nx, c.g.Ny)
		// The step bounds the detector rows an h-depth block spans,
		// (h−1)·step plus the bilinear taps: projection_heavy's 17.9 rows
		// per plane put ≈ 127 rows under an 8-depth block, past any 16- or
		// 32-sample window, and a shallow slab fits only at ≤ 2 rows per
		// plane.
		t.Logf("%s: h=%d, max step %.2f rows/plane", c.name, c.h, step)
		want := c.window && kernels.ISA() == "avx512"
		if got := kernels.WindowFits(c.h, c.g.Nv, step); got != want {
			t.Errorf("%s (h=%d, Nv=%d, max step %.2f rows/plane, isa=%s): window kernel %v, want %v", c.name, c.h, c.g.Nv, step, kernels.ISA(), got, want)
		}
	}
}
