package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/preview"
	"ifdk/internal/ct/projector"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

// volumeFNV is the FNV-64a of a volume's float32 bits, little-endian.
func volumeFNV(v *volume.Volume) string {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v.Data {
		u := math.Float32bits(x)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestVolumeBitsPinned pins the bits of every way a volume leaves the
// pipeline to their values before the window back-projection tier and the
// blocked epilogue: core.Run's assembled volume and the slices it stored,
// at 1×1, 2×2, 4×2 and 2×4 on nx 64 and 128 (slab depths 64 down to 8, so
// both accumulator layouts where the host has the window tier), serial
// fdk.Reconstruct, and a factor-2 preview. Shepp-Logan, 32 projections of
// an nx² detector; the 1×1 grid equals serial FDK.
func TestVolumeBitsPinned(t *testing.T) {
	pins := []struct {
		nx, r, c int
		fnv      string
	}{
		{64, 1, 1, "300bb628f4969b4b"},
		{64, 2, 2, "5712e28b1b5ec045"},
		{64, 4, 2, "27e27b4396a1f80d"},
		{64, 2, 4, "92bbeb6d9bc18344"},
		{128, 1, 1, "e8c0cdf56ded1a30"},
		{128, 2, 2, "3d47a59be9ef4f66"},
		{128, 4, 2, "89257b8bb9d52871"},
		{128, 2, 4, "842b3ee358c5e89e"},
	}
	serial := map[int]string{64: "300bb628f4969b4b", 128: "e8c0cdf56ded1a30"}
	coarse := map[int]string{64: "bd0a4238f8038a0e", 128: "d62a2e2ca68efdec"}
	for _, nx := range []int{64, 128} {
		g := geometry.Default(nx, nx, 32, nx, nx, nx)
		proj := projector.AnalyticAll(phantom.SheppLogan3D(g.FOVRadius()*0.9), g, 0)
		store := pfs.New(pfs.Config{})
		if err := StageProjections(store, "in", proj); err != nil {
			t.Fatal(err)
		}
		for _, pin := range pins {
			if pin.nx != nx {
				continue
			}
			res, err := Run(Config{R: pin.r, C: pin.c, Geometry: g, InputPrefix: "in", OutputPrefix: "out", AssembleVolume: true}, store)
			if err != nil {
				t.Fatal(err)
			}
			stored, _, err := store.ReadVolumeSlices("out", g.Nx, g.Ny, g.Nz)
			if err != nil {
				t.Fatal(err)
			}
			if got := volumeFNV(res.Volume); got != pin.fnv {
				t.Errorf("nx=%d %d×%d: assembled volume FNV %s, want %s", nx, pin.r, pin.c, got, pin.fnv)
			}
			if got := volumeFNV(stored); got != pin.fnv {
				t.Errorf("nx=%d %d×%d: stored slices FNV %s, want %s", nx, pin.r, pin.c, got, pin.fnv)
			}
		}
		ref, err := fdk.Reconstruct(g, proj, fdk.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := volumeFNV(ref); got != serial[nx] {
			t.Errorf("nx=%d: fdk.Reconstruct FNV %s, want %s", nx, got, serial[nx])
		}
		plan, err := preview.PlanFor(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		pv, _, err := plan.Reconstruct(context.Background(), func(dst *volume.Image, s int) error {
			copy(dst.Data, proj[s].Data)
			return nil
		}, preview.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := volumeFNV(pv); got != coarse[nx] {
			t.Errorf("nx=%d: preview FNV %s, want %s", nx, got, coarse[nx])
		}
	}
}

// A failure or a cancellation during the epilogue of an assembling run must
// still return every pooled buffer — the row roots' plane buffers among
// them, whether stored from, in flight to rank 0 or already received
// (failedRun checks engine.InUseBytes): a write that fails part-way through
// the slices, and a cancel from inside the first slice callback, on four
// rank rows.
func TestEpilogueFailureReleasesPlanes(t *testing.T) {
	g, store, _ := testSetup(t)
	cfg := Config{R: 4, C: 1, Geometry: g, InputPrefix: "in", OutputPrefix: "out", AssembleVolume: true}
	for _, after := range []int64{0, int64(g.Nz / 2), int64(g.Nz - 1)} {
		store.FailAfterWrites(after)
		requireStageError(t, failedRun(t, context.Background(), cfg, store), "injected write failure")
	}
	store.FailAfterWrites(-1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.SliceWritten = func(int, *volume.Image, int, int) { cancel() }
	failedRun(t, ctx, cfg, store)
}
