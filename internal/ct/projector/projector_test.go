package projector

import (
	"math"
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
