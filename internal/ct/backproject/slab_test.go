package backproject

import (
	"math"
	"testing"

	"ifdk/internal/ct/geometry"
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
			if err := SlabPairToGlobal(local, assembled, g.Nz, z0, z1); err != nil {
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
	if err := SlabPairToGlobal(volume.New(8, 8, 4, volume.KMajor), volume.New(8, 8, 6, volume.IMajor), 8, 0, 2); err == nil {
		t.Error("mismatched global depth accepted")
	}
	if err := SlabPairToGlobal(volume.New(8, 8, 4, volume.KMajor), volume.New(4, 4, 8, volume.IMajor), 8, 0, 2); err == nil {
		t.Error("mismatched XY accepted")
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
// DefaultBatch does not divide (a full batch, then a short one).
func TestTransposedTaskBitIdentical(t *testing.T) {
	g := geometry.Default(40, 23, 40, 16, 16, 16)
	task := randomTask(g, 41)
	tt := transposedTask(task)
	opt := Options{Workers: 3}
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
		for n := range want.Data {
			if got.Data[n] != want.Data[n] {
				t.Fatalf("slab [%d,%d): transposed task differs at voxel %d: %g vs %g", z0, z1, n, got.Data[n], want.Data[n])
			}
		}
	}
	// The other entry points read the detector layout and refuse it.
	if err := Standard(tt, volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor), opt); err == nil {
		t.Error("Standard accepted a transposed task")
	}
	if err := Proposed(tt, volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor), opt); err == nil {
		t.Error("Proposed accepted a transposed task")
	}
}
