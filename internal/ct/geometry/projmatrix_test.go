package geometry

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func TestCenterVoxelProjectsToDetectorCenter(t *testing.T) {
	p := Default(128, 96, 180, 64, 64, 64)
	ci := float64(p.Nx-1) / 2
	cj := float64(p.Ny-1) / 2
	ck := float64(p.Nz-1) / 2
	for s := 0; s < p.Np; s += 17 {
		P := ProjectionMatrix(p, p.Beta(s))
		u, v, z := P.Project(ci, cj, ck)
		if math.Abs(u-p.DetCenterU()) > 1e-9 || math.Abs(v-p.DetCenterV()) > 1e-9 {
			t.Errorf("s=%d: centre projects to (%g,%g), want (%g,%g)",
				s, u, v, p.DetCenterU(), p.DetCenterV())
		}
		if math.Abs(z-p.SAD) > 1e-9 {
			t.Errorf("s=%d: depth of centre = %g, want d = %g", s, z, p.SAD)
		}
	}
}

func TestProjectionMatricesCount(t *testing.T) {
	p := Default(32, 32, 45, 16, 16, 16)
	ms := ProjectionMatrices(p)
	if len(ms) != 45 {
		t.Fatalf("got %d matrices", len(ms))
	}
	// Distinct angles must produce distinct matrices.
	if ms[0] == ms[1] {
		t.Error("P_0 == P_1")
	}
}

func TestMagnificationAtIsocentre(t *testing.T) {
	// A point offset along world X at β=0 lies parallel to the detector at
	// depth d, so its offset is magnified by exactly D/d.
	p := Default(256, 256, 360, 64, 64, 64)
	P := ProjectionMatrix(p, 0)
	ci := float64(p.Nx-1) / 2
	cj := float64(p.Ny-1) / 2
	ck := float64(p.Nz-1) / 2
	u0, _, _ := P.Project(ci, cj, ck)
	u1, _, _ := P.Project(ci+1, cj, ck)
	gotMag := (u1 - u0) * p.Du / p.Dx
	if math.Abs(gotMag-p.Magnification()) > 1e-9 {
		t.Errorf("magnification = %g, want %g", gotMag, p.Magnification())
	}
}

func TestRow(t *testing.T) {
	var P ProjMat
	for i := range P {
		P[i] = float64(i)
	}
	r1 := P.Row(1)
	if r1 != [4]float64{4, 5, 6, 7} {
		t.Errorf("Row(1) = %v", r1)
	}
}

func TestRows32(t *testing.T) {
	p := Default(64, 64, 90, 32, 32, 32)
	P := ProjectionMatrix(p, 0.7)
	rows := P.Rows32()
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if math.Abs(float64(rows[r][c])-P[4*r+c]) > 1e-4*math.Max(1, math.Abs(P[4*r+c])) {
				t.Errorf("Rows32[%d][%d] = %g, want %g", r, c, rows[r][c], P[4*r+c])
			}
		}
	}
}

func TestApplyMatchesMatrixVector(t *testing.T) {
	p := Default(64, 64, 90, 32, 32, 32)
	beta := 1.234
	P := ProjectionMatrix(p, beta)
	full := M1(p).Mul(Mrot(p, beta)).Mul(M0(p))
	for _, ijk := range [][3]float64{{0, 0, 0}, {31, 0, 15}, {7, 21, 3}} {
		x, y, z := P.Apply(ijk[0], ijk[1], ijk[2])
		want := full.MulVec([4]float64{ijk[0], ijk[1], ijk[2], 1})
		if math.Abs(x-want[0]) > 1e-12 || math.Abs(y-want[1]) > 1e-12 || math.Abs(z-want[2]) > 1e-12 {
			t.Errorf("Apply(%v) = (%g,%g,%g), want (%g,%g,%g)", ijk, x, y, z, want[0], want[1], want[2])
		}
	}
}

func TestValidate(t *testing.T) {
	good := Default(64, 64, 90, 32, 32, 32)
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{},
		func() Params { p := good; p.Np = 0; return p }(),
		func() Params { p := good; p.Du = -1; return p }(),
		func() Params { p := good; p.SDD = p.SAD / 2; return p }(),
		func() Params { p := good; p.Nx = 0; return p }(),
		func() Params { p := good; p.Dz = 0; return p }(),
	}
	for n, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", n)
		}
	}
}

func TestProblemHelpers(t *testing.T) {
	pr := Problem{Nu: 512, Nv: 512, Np: 1024, Nx: 256, Ny: 256, Nz: 256}
	if got := pr.Alpha(); math.Abs(got-16) > 1e-12 {
		t.Errorf("Alpha = %g, want 16", got)
	}
	if pr.InputBytes() != 4*512*512*1024 {
		t.Errorf("InputBytes = %d", pr.InputBytes())
	}
	if pr.OutputBytes() != 4*256*256*256 {
		t.Errorf("OutputBytes = %d", pr.OutputBytes())
	}
	if pr.String() != "512x512x1024->256x256x256" {
		t.Errorf("String = %q", pr.String())
	}
	// 2^24 voxels × 2^10 projections = 2^34 updates in 16 s = 1 GUPS.
	if g := pr.GUPS(16); math.Abs(g-1) > 1e-12 {
		t.Errorf("GUPS(16) = %g, want 1", g)
	}
	if pr.GUPS(0) != 0 {
		t.Error("GUPS(0) should be 0")
	}
}

// TestProjectionMatricesPinned pins the bits of geometry.ProjectionMatrices,
// FNV-64a over every matrix's float64 words in order, for each benchmark
// geometry: projection_heavy (512², 256 projections, 32³), volume_heavy
// (256², 320, 128³), progressive_stream (256², 256, 128³) and fleet_mixed's
// shapes (np = 2·nx + 8k for k < 8) at 64² (32³) and 32² (16³). Every
// back-projection tier starts from these matrices, so a change to their
// arithmetic — an edit, or a fused multiply-add a GOARCH makes of it —
// fails here by name rather than only through a whole volume's pin
// (core.TestVolumeBitsPinned).
func TestProjectionMatricesPinned(t *testing.T) {
	hash := func(ps ...Params) uint64 {
		h := fnv.New64a()
		var word [8]byte
		for _, p := range ps {
			for _, m := range ProjectionMatrices(p) {
				for _, x := range m {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
					h.Write(word[:])
				}
			}
		}
		return h.Sum64()
	}
	fleet := func(nx int) (ps []Params) {
		for k := range 8 {
			ps = append(ps, Default(2*nx, 2*nx, 2*nx+8*k, nx, nx, nx))
		}
		return ps
	}
	for _, c := range []struct {
		name string
		ps   []Params
		want uint64
	}{
		{"projection_heavy", []Params{Default(512, 512, 256, 32, 32, 32)}, 0x101f8404ab82f03f},
		{"volume_heavy", []Params{Default(256, 256, 320, 128, 128, 128)}, 0x742a9c584d62cd79},
		{"progressive_stream", []Params{Default(256, 256, 256, 128, 128, 128)}, 0xa5f7358736d345c2},
		{"fleet_mixed 64²", fleet(32), 0xa08c07261e9f0226},
		{"fleet_mixed 32²", fleet(16), 0x2e4fb708eaeab2fe},
	} {
		if got := hash(c.ps...); got != c.want {
			t.Errorf("%s: projection matrices hash to %#016x, pinned %#016x", c.name, got, c.want)
		}
	}
}
