package kernels_test

import (
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/core"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

// FuzzPipelineTiers runs core.Run — load, filter, AllGather, back-project,
// reduce and assemble on a rank grid — on a small random geometry on the
// portable, AVX2 and AVX-512 tiers and requires the three volumes to agree
// bit for bit (any NaN for a NaN). The kernel fuzzers check the assembly
// wrappers on shapes they are handed; this one checks that the pipeline's
// dispatch (kernels.WindowFits, the gather path, the filter's tiers)
// yields the same volume whichever tier the host runs:
//
//   - nu × nv is the detector, 8…64 each (odd heights included), np the
//     projections per rank (Np = R·C·(1 + np%8)), nx the volume's side,
//     4…32, and nz its depth, 2R·(1 + nz%64);
//   - sad and sdd set the source distances (SAD 500…1775 mm, SDD 1.2…3.75
//     SAD), and dz scales the plane pitch 0.5…2× the one that fits the
//     cone, so at the large end the outer planes leave the detector and
//     the slopes steepen past a 16-depth window;
//   - grid picks 1×1, 2×1, 1×2 or 2×2, and seed the pixels.
//
// Like TestBackprojectBitIdenticalAcrossTiers it lives here because only
// this directory's tests can reach the tier switches.
func FuzzPipelineTiers(f *testing.F) {
	const grid11, grid21, grid12, grid22 = 0, 1, 2, 3
	// Window slabs with h ≥ 32, where the kernel pipelines whole pairs of
	// blocks: 1×1 and 1×2 at nz 64 (h = 32) and 2×2 at nz 128 (h = 32) on a
	// 64-row detector, and h = 64 at 1×1, nz 128.
	f.Add(uint8(56), uint8(56), uint8(3), uint8(16), uint8(31), uint8(50), uint8(50), uint8(85), uint8(grid11), int64(1))
	f.Add(uint8(56), uint8(56), uint8(3), uint8(16), uint8(31), uint8(50), uint8(50), uint8(85), uint8(grid12), int64(2))
	f.Add(uint8(56), uint8(56), uint8(1), uint8(12), uint8(31), uint8(50), uint8(50), uint8(85), uint8(grid22), int64(3))
	f.Add(uint8(40), uint8(56), uint8(1), uint8(12), uint8(63), uint8(50), uint8(50), uint8(85), uint8(grid11), int64(4))
	// The same slabs with the plane pitch doubled: the outer planes leave
	// the detector's top and bottom rows, and the steps need 8-depth
	// windows.
	f.Add(uint8(56), uint8(56), uint8(3), uint8(16), uint8(31), uint8(50), uint8(50), uint8(255), uint8(grid11), int64(5))
	f.Add(uint8(56), uint8(56), uint8(1), uint8(12), uint8(31), uint8(50), uint8(50), uint8(200), uint8(grid22), int64(6))
	// Odd detector heights (Nv 33 and 47) on the window and the gather path.
	f.Add(uint8(24), uint8(25), uint8(2), uint8(16), uint8(15), uint8(10), uint8(90), uint8(120), uint8(grid21), int64(7))
	f.Add(uint8(24), uint8(39), uint8(2), uint8(10), uint8(7), uint8(100), uint8(20), uint8(60), uint8(grid12), int64(8))
	// fleet_mixed-like slabs, h = 2 … 8, on the gather path.
	f.Add(uint8(24), uint8(24), uint8(5), uint8(16), uint8(3), uint8(50), uint8(50), uint8(85), uint8(grid22), int64(9))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(grid21), int64(10))

	f.Fuzz(func(t *testing.T, nu, nv, np, nx, nz, sad, sdd, dz, grid uint8, seed int64) {
		if !kernels.HasAVX2() {
			t.Skip("CPU or OS without AVX2: there is one fast tier here, nothing to compare")
		}
		shape := [4][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}}[grid%4]
		r, c := shape[0], shape[1]
		side := 4 + int(nx)%29
		g := geometry.Default(8+int(nu)%57, 8+int(nv)%57, r*c*(1+int(np)%8), side, side, 2*r*(1+int(nz)%64))
		g.SAD = 500 + 5*float64(sad)
		g.SDD = g.SAD * (1.2 + float64(sdd)/100)
		g.Dz *= 0.5 + 1.5*float64(dz)/255
		if err := g.Validate(); err != nil {
			t.Skip(err)
		}
		rng := rand.New(rand.NewSource(seed))
		proj := make([]*volume.Image, g.Np)
		for s := range proj {
			proj[s] = volume.NewImage(g.Nu, g.Nv)
			for n := range proj[s].Data {
				proj[s].Data[n] = rng.Float32()
			}
		}
		store := pfs.New(pfs.Config{})
		if err := core.StageProjections(store, "in", proj); err != nil {
			t.Fatal(err)
		}
		run := func(avx2, avx512 bool) []float32 {
			defer kernels.SetAVX2(avx2)()
			defer kernels.SetAVX512(avx512)()
			res, err := core.Run(core.Config{R: r, C: c, Geometry: g, InputPrefix: "in", AssembleVolume: true}, store)
			if err != nil {
				t.Fatal(err)
			}
			return res.Volume.Data
		}
		want := run(false, false)
		legs := []struct {
			name         string
			avx2, avx512 bool
		}{{"avx2", true, false}, {"avx512", true, true}}
		if !kernels.HasAVX512() {
			legs = legs[:1]
		}
		for _, l := range legs {
			got := run(l.avx2, l.avx512)
			for n := range want {
				if a, b := want[n], got[n]; math.Float32bits(a) != math.Float32bits(b) && !(a != a && b != b) {
					t.Fatalf("%d×%d detector, Np %d, %d×%d×%d volume on %d×%d: voxel %d is %v on go, %v on %s",
						g.Nu, g.Nv, g.Np, g.Nx, g.Ny, g.Nz, r, c, n, a, b, l.name)
				}
			}
		}
	})
}
