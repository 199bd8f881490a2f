package projector

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/pkg/volume"
)

func testGeom() geometry.Params {
	return geometry.Default(48, 48, 12, 24, 24, 24)
}

func TestAnalyticCentralPixel(t *testing.T) {
	g := testGeom()
	r := g.FOVRadius() * 0.5
	ph := phantom.UniformSphere(r, 1)
	img := Analytic(ph, g, 0)
	if img.W != g.Nu || img.H != g.Nv {
		t.Fatalf("projection size %dx%d", img.W, img.H)
	}
	// The exact central ray passes through the sphere centre; with an even
	// detector the centre falls between pixels, so evaluate the exact centre
	// via the ray API for the reference and check the nearest pixel is close.
	centreRay := geometry.DetectorRay(g, 0, g.DetCenterU(), g.DetCenterV())
	want := ph.LineIntegral(centreRay)
	if math.Abs(want-2*r) > 1e-9 {
		t.Fatalf("central integral = %g, want %g", want, 2*r)
	}
	got := float64(img.At(g.Nu/2, g.Nv/2))
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("central pixel = %g, want ≈ %g", got, want)
	}
}

func TestAnalyticAllMatchesSingle(t *testing.T) {
	g := testGeom()
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	all := AnalyticAll(ph, g, 2)
	if len(all) != g.Np {
		t.Fatalf("got %d projections", len(all))
	}
	for _, s := range []int{0, g.Np / 2, g.Np - 1} {
		single := Analytic(ph, g, s)
		r, err := volume.ImageRMSE(all[s], single)
		if err != nil || r != 0 {
			t.Errorf("s=%d: parallel projection differs (rmse %g, err %v)", s, r, err)
		}
	}
}

func TestProjectionSymmetryOppositeAngles(t *testing.T) {
	// For a phantom symmetric under 180° rotation about Z (a centred
	// sphere), opposite projections are mirror images in U.
	g := geometry.Default(32, 32, 8, 16, 16, 16)
	ph := phantom.UniformSphere(g.FOVRadius()*0.6, 1)
	a := Analytic(ph, g, 0)
	b := Analytic(ph, g, g.Np/2) // β + π
	var worst float64
	for v := 0; v < g.Nv; v++ {
		for u := 0; u < g.Nu; u++ {
			d := math.Abs(float64(a.At(u, v)) - float64(b.At(g.Nu-1-u, v)))
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-4 {
		t.Errorf("opposite projections differ by %g", worst)
	}
}

func TestRaycastMatchesAnalytic(t *testing.T) {
	// Ray marching through the voxelized sphere should approximate the
	// analytic integrals (within discretization error).
	g := geometry.Default(32, 32, 4, 32, 32, 32)
	ph := phantom.UniformSphere(g.FOVRadius()*0.6, 1)
	vol := ph.Voxelize(g)
	exact := Analytic(ph, g, 1)
	marched := Raycast(vol, g, 1, DefaultStep(g))
	r, err := volume.ImageRMSE(exact, marched)
	if err != nil {
		t.Fatal(err)
	}
	s := exact.Summarize()
	if r > 0.15*float64(s.Max) {
		t.Errorf("raycast RMSE %g too large vs max %g", r, s.Max)
	}
}

func TestRaycastEmptyVolume(t *testing.T) {
	g := geometry.Default(16, 16, 4, 8, 8, 8)
	vol := volume.New(8, 8, 8, volume.IMajor)
	img := Raycast(vol, g, 0, DefaultStep(g))
	s := img.Summarize()
	if s.Min != 0 || s.Max != 0 {
		t.Errorf("projection of empty volume has range [%g, %g]", s.Min, s.Max)
	}
}

func BenchmarkAnalyticProjection64(b *testing.B) {
	g := geometry.Default(64, 64, 8, 32, 32, 32)
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analytic(ph, g, i%g.Np)
	}
}

// refDetectorRay and refChord are the one-ray derivation the renderer was
// split from, kept verbatim as the reference the split must match bit for
// bit.
func refDetectorRay(p geometry.Params, beta, u, v float64) geometry.Ray {
	dgx := (u - p.DetCenterU()) * p.Du / p.SDD
	dgy := (v - p.DetCenterV()) * p.Dv / p.SDD
	dr := geometry.Vec3{X: dgx, Y: 1, Z: -dgy}
	sin, cos := math.Sincos(beta)
	dw := geometry.Vec3{
		X: cos*dr.X + sin*dr.Y,
		Y: -sin*dr.X + cos*dr.Y,
		Z: dr.Z,
	}
	return geometry.Ray{Origin: geometry.SourcePosition(p, beta), Dir: dw.Normalize()}
}

func refChord(e phantom.Ellipsoid, r geometry.Ray) float64 {
	sin, cos := math.Sincos(e.Phi)
	ox, oy, oz := r.Origin.X-e.X0, r.Origin.Y-e.Y0, r.Origin.Z-e.Z0
	q0 := geometry.Vec3{
		X: (cos*ox + sin*oy) / e.A,
		Y: (-sin*ox + cos*oy) / e.B,
		Z: oz / e.C,
	}
	d := geometry.Vec3{
		X: (cos*r.Dir.X + sin*r.Dir.Y) / e.A,
		Y: (-sin*r.Dir.X + cos*r.Dir.Y) / e.B,
		Z: r.Dir.Z / e.C,
	}
	a := d.Dot(d)
	b := 2 * q0.Dot(d)
	c := q0.Dot(q0) - 1
	disc := b*b - 4*a*c
	if disc <= 0 || a == 0 {
		return 0
	}
	sq := math.Sqrt(disc)
	t1 := (-b - sq) / (2 * a)
	t2 := (-b + sq) / (2 * a)
	if t2 < 0 {
		return 0
	}
	if t1 < 0 {
		t1 = 0
	}
	return t2 - t1
}

func refLineIntegral(ph phantom.Phantom, r geometry.Ray) float64 {
	var sum float64
	for _, e := range ph.Ellipsoids {
		if l := refChord(e, r); l > 0 {
			sum += l * e.Rho
		}
	}
	return sum
}

func sameVec(a, b geometry.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// The renderer, and the one-ray DetectorRay and LineIntegral built on the
// same split, reproduce the one-ray derivation bit for bit: every pixel of
// the three service phantoms and a shifted, rotated ellipsoid, on square,
// odd and flat detectors, at the quarter angles and an odd index.
func TestAnalyticBitIdenticalToOneRayLoop(t *testing.T) {
	for _, det := range [][2]int{{48, 48}, {40, 23}, {33, 9}, {512, 512}} {
		g := geometry.Default(det[0], det[1], 64, 32, 32, 32)
		r := g.FOVRadius() * 0.9
		phantoms := map[string]phantom.Phantom{
			"shepplogan": phantom.SheppLogan3D(r),
			"sphere":     phantom.UniformSphere(r*0.6, 1),
			"industrial": phantom.IndustrialBlock(r),
			"tilted": {Ellipsoids: []phantom.Ellipsoid{{
				A: 0.5 * r, B: 0.3 * r, C: 0.4 * r, X0: 0.1 * r, Y0: -0.05 * r, Z0: 0.2 * r, Phi: 0.7, Rho: 1.3,
			}}},
		}
		for name, ph := range phantoms {
			rd := NewRenderer(ph, g) // reused across angles, as a staging worker does
			img := volume.NewImage(g.Nu, g.Nv)
			for _, s := range []int{0, g.Np / 4, g.Np / 2, 3 * g.Np / 4, 13} {
				rd.Render(img, s)
				beta := g.Beta(s)
				bad := 0
				for v := 0; v < g.Nv; v++ {
					for u := 0; u < g.Nu; u++ {
						ref := refDetectorRay(g, beta, float64(u), float64(v))
						want := refLineIntegral(ph, ref)
						if math.Float32bits(img.At(u, v)) != math.Float32bits(float32(want)) {
							bad++
						}
						if g.Nu > 64 {
							continue // the one-ray forms: small detectors suffice
						}
						ray := geometry.DetectorRay(g, beta, float64(u), float64(v))
						if !sameVec(ray.Origin, ref.Origin) || !sameVec(ray.Dir, ref.Dir) {
							t.Fatalf("%dx%d s=%d (%d,%d): DetectorRay %+v, reference %+v", g.Nu, g.Nv, s, u, v, ray, ref)
						}
						if got := ph.LineIntegral(ref); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %dx%d s=%d (%d,%d): LineIntegral %v, reference %v", name, g.Nu, g.Nv, s, u, v, got, want)
						}
					}
				}
				if bad != 0 {
					t.Errorf("%s %dx%d s=%d: %d of %d pixels differ from the one-ray loop", name, g.Nu, g.Nv, s, bad, g.Nu*g.Nv)
				}
			}
		}
	}
}

// cullCase is one phantom and detector on which the renderer's plane
// culling must keep every pixel's bits.
type cullCase struct {
	name   string
	nu, nv int
	els    []phantom.Ellipsoid
}

// cullGeom is a cull case's geometry: np views of the default scanner.
func cullGeom(nu, nv, np int) geometry.Params { return geometry.Default(nu, nv, np, 16, 16, 16) }

// cullCases are the shapes the row and column plane tests can get wrong:
// silhouettes tangent to a row's or a column's plane through pixel
// centres, ellipsoids smaller than a pixel, partly off the detector,
// rotated and off-centre, around and behind the source, and more of them
// than a 64-bit mask holds, on odd and flat detectors.
func cullCases() []cullCase {
	g := cullGeom(33, 9, 64)
	fov := g.FOVRadius()
	// Row v's plane through the source at β = 0 has normal (0, dgy, 1) and
	// lies SAD·|dgy| / √(1 + dgy²) from the origin, so a sphere of that
	// radius there touches it; an ellipsoid with semi-axes B and
	// C = |dgy|·√(SAD² − B²) touches it too. A column's plane, normal
	// (1, −dgx, 0), is tangent to the sphere of radius SAD·|dgx| / √(1 + dgx²).
	dgy := (1 - g.DetCenterV()) * g.Dv / g.SDD
	dgx := (4 - g.DetCenterU()) * g.Du / g.SDD
	rowR := g.SAD * math.Abs(dgy) / math.Sqrt(1+dgy*dgy)
	colR := g.SAD * math.Abs(dgx) / math.Sqrt(1+dgx*dgx)
	cases := []cullCase{
		{name: "tangent-row-sphere", nu: 33, nv: 9, els: []phantom.Ellipsoid{{A: rowR, B: rowR, C: rowR, Rho: 1}}},
		{name: "tangent-row-ellipsoid", nu: 33, nv: 9, els: []phantom.Ellipsoid{
			{A: 0.4 * fov, B: 0.3 * fov, C: math.Abs(dgy) * math.Sqrt(g.SAD*g.SAD-0.09*fov*fov), Rho: 1}}},
		{name: "tangent-column-sphere", nu: 33, nv: 9, els: []phantom.Ellipsoid{{A: colR, B: colR, C: colR, Rho: 2}}},
		{name: "sub-pixel", nu: 40, nv: 23, els: []phantom.Ellipsoid{
			{A: 0.2, B: 0.3, C: 0.25, Rho: 1},
			{A: 0.3, B: 0.2, C: 0.2, X0: 0.1 * fov, Y0: -0.2 * fov, Z0: 1.3, Phi: 0.4, Rho: 3},
			{A: 0.25, B: 0.25, C: 0.4, X0: -0.3 * fov, Y0: 0.25 * fov, Z0: -2.1, Rho: -1},
		}},
		{name: "off-detector", nu: 33, nv: 9, els: []phantom.Ellipsoid{
			{A: 0.6 * fov, B: 0.5 * fov, C: 3 * fov, X0: 0.8 * fov, Y0: 0.2 * fov, Rho: 1},
			{A: 0.3 * fov, B: 0.3 * fov, C: 0.3 * fov, X0: -1.4 * fov, Z0: 0.5 * fov, Rho: 0.5},
			{A: 0.2 * fov, B: 0.4 * fov, C: 0.2 * fov, X0: 4 * fov, Y0: 4 * fov, Rho: 2},
		}},
		{name: "rotated-off-centre", nu: 48, nv: 48, els: []phantom.Ellipsoid{
			{A: 0.5 * fov, B: 0.15 * fov, C: 0.3 * fov, X0: 0.2 * fov, Y0: -0.1 * fov, Z0: 0.1 * fov, Phi: 0.9, Rho: 1.3},
			{A: 0.05 * fov, B: 0.4 * fov, C: 0.1 * fov, X0: -0.3 * fov, Y0: 0.3 * fov, Z0: -0.2 * fov, Phi: -2.2, Rho: -0.7},
		}},
		{name: "around-and-behind-source", nu: 31, nv: 7, els: []phantom.Ellipsoid{
			{A: 40, B: 40, C: 40, Y0: -g.SAD, Rho: 1},
			{A: 20, B: 30, C: 10, Y0: -1.15 * g.SAD, Rho: 2},
			{A: 0.3 * fov, B: 0.3 * fov, C: 0.3 * fov, Rho: 1},
		}},
	}
	many := make([]phantom.Ellipsoid, 70)
	rng := rand.New(rand.NewSource(7))
	for i := range many {
		many[i] = phantom.Ellipsoid{
			A: fov * (0.01 + 0.3*rng.Float64()), B: fov * (0.01 + 0.3*rng.Float64()), C: fov * (0.01 + 0.3*rng.Float64()),
			X0: fov * (rng.Float64() - 0.5), Y0: fov * (rng.Float64() - 0.5), Z0: fov * (rng.Float64() - 0.5),
			Phi: 2 * math.Pi * rng.Float64(), Rho: rng.Float64() - 0.5,
		}
	}
	cases = append(cases,
		cullCase{name: "70-ellipsoids", nu: 40, nv: 23, els: many},
		cullCase{name: "70-ellipsoids-flat", nu: 64, nv: 1, els: many})
	return cases
}

// renderMatchesOneRay renders ph at view s and counts the pixels whose bits
// differ from the one-ray reference loop.
func renderMatchesOneRay(g geometry.Params, ph phantom.Phantom, s int) (bad int) {
	img := volume.NewImage(g.Nu, g.Nv)
	NewRenderer(ph, g).Render(img, s)
	beta := g.Beta(s)
	for v := 0; v < g.Nv; v++ {
		for u := 0; u < g.Nu; u++ {
			want := refLineIntegral(ph, refDetectorRay(g, beta, float64(u), float64(v)))
			if math.Float32bits(img.At(u, v)) != math.Float32bits(float32(want)) {
				bad++
			}
		}
	}
	return bad
}

// The renderer's plane culling keeps every pixel of the one-ray loop, bit
// for bit, on the shapes where a plane test could cut a ray that still
// touches an ellipsoid.
func TestRenderCullEdgeCases(t *testing.T) {
	for _, c := range cullCases() {
		g := cullGeom(c.nu, c.nv, 64)
		ph := phantom.Phantom{Ellipsoids: c.els}
		for _, s := range []int{0, 1, 7, g.Np / 4, g.Np / 2, 37} {
			if bad := renderMatchesOneRay(g, ph, s); bad != 0 {
				t.Errorf("%s %dx%d s=%d: %d of %d pixels differ from the one-ray loop", c.name, g.Nu, g.Nv, s, bad, g.Nu*g.Nv)
			}
		}
	}
}

// encodeEllipsoids packs ellipsoids as FuzzRenderMatchesOneRay reads them:
// eight little-endian float64 each (A, B, C, X0, Y0, Z0, Φ, ρ).
func encodeEllipsoids(els []phantom.Ellipsoid) []byte {
	var b []byte
	for _, e := range els {
		for _, x := range [8]float64{e.A, e.B, e.C, e.X0, e.Y0, e.Z0, e.Phi, e.Rho} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// decodeEllipsoids reads up to 80 ellipsoids, or reports false for a
// non-finite value. Semi-axes are folded into [0.2, 2000] and centres into
// ±1200 (the scanner's source circle has radius 1000), which keeps every
// ellipsoid inside the range the plane test's margin covers: its smallest
// semi-axis at least 1/20 000 of its distance from the source.
func decodeEllipsoids(b []byte) ([]phantom.Ellipsoid, bool) {
	var els []phantom.Ellipsoid
	for len(b) >= 64 && len(els) < 80 {
		var f [8]float64
		for i := range f {
			f[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			if math.IsNaN(f[i]) || math.IsInf(f[i], 0) {
				return nil, false
			}
		}
		b = b[64:]
		axis := func(x float64) float64 { return min(max(math.Abs(x), 0.2), 2000) }
		pos := func(x float64) float64 { return min(max(x, -1200), 1200) }
		els = append(els, phantom.Ellipsoid{
			A: axis(f[0]), B: axis(f[1]), C: axis(f[2]),
			X0: pos(f[3]), Y0: pos(f[4]), Z0: pos(f[5]),
			Phi: math.Mod(f[6], 2*math.Pi), Rho: min(max(f[7], -8), 8),
		})
	}
	return els, true
}

// FuzzRenderMatchesOneRay renders random ellipsoids on random detectors at
// a random view and requires every pixel to match the one-ray loop bit for
// bit. The seeds are TestRenderCullEdgeCases' cases.
func FuzzRenderMatchesOneRay(f *testing.F) {
	for i, c := range cullCases() {
		f.Add(uint8(c.nu), uint8(c.nv), uint8(i), encodeEllipsoids(c.els))
	}
	f.Fuzz(func(t *testing.T, nu, nv, s uint8, data []byte) {
		els, ok := decodeEllipsoids(data)
		if !ok {
			return
		}
		g := cullGeom(1+int(nu)%64, 1+int(nv)%48, 64)
		if bad := renderMatchesOneRay(g, phantom.Phantom{Ellipsoids: els}, int(s)%g.Np); bad != 0 {
			t.Errorf("%d ellipsoids %dx%d s=%d: %d pixels differ from the one-ray loop", len(els), g.Nu, g.Nv, int(s)%g.Np, bad)
		}
	})
}

// BenchmarkRenderScan times the staging render of the service's phantoms
// at projection_heavy's detector, 512², over 16 of 256 views.
func BenchmarkRenderScan(b *testing.B) {
	g := geometry.Default(512, 512, 256, 32, 32, 32)
	for _, name := range []string{"sphere", "shepplogan", "industrial"} {
		b.Run(name, func(b *testing.B) {
			ph, err := phantom.ByName(name, g)
			if err != nil {
				b.Fatal(err)
			}
			r := NewRenderer(ph, g)
			img := volume.NewImage(g.Nu, g.Nv)
			for b.Loop() {
				for s := 0; s < g.Np; s += g.Np / 16 {
					r.Render(img, s)
				}
			}
		})
	}
}
