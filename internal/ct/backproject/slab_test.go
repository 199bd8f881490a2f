package backproject

import (
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/pkg/volume"
)

// Slab pairs over all rows must tile the full volume and reproduce the
// full-volume reconstruction exactly.
func TestSlabPairsTileFullVolume(t *testing.T) {
	g := geometry.Default(48, 48, 24, 16, 16, 16)
	task := randomTask(g, 21)
	full := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	if err := Proposed(task, full, Options{}); err != nil {
		t.Fatal(err)
	}
	fullI := full.Reshape(volume.IMajor)
	for _, r := range []int{1, 2, 4} {
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
		rmse, err := volume.RMSE(fullI, assembled)
		if err != nil {
			t.Fatal(err)
		}
		if rmse > 1e-6 {
			t.Errorf("R=%d: slab assembly RMSE = %g", r, rmse)
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
