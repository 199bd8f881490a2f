// Package phantom provides analytic test objects for CT reconstruction:
// sets of ellipsoids with additive densities. The paper generates its input
// projections from the standard Shepp–Logan phantom with RTK's
// forward-projection tool (Sec. 5.1); this package plays the same role and,
// because ellipsoid line integrals have a closed form, also provides exact
// reference projections for testing the projector and the full pipeline.
package phantom

import (
	"fmt"
	"math"

	"ifdk/internal/ct/geometry"
	"ifdk/pkg/volume"
)

// Ellipsoid is an axis-scaled, Z-rotated, translated unit sphere with an
// additive density Rho. Overlapping ellipsoids sum their densities, which is
// how the Shepp–Logan phantom carves ventricles and tumours out of the
// skull.
type Ellipsoid struct {
	A, B, C    float64 // semi-axes along X, Y, Z (world units)
	X0, Y0, Z0 float64 // centre (world units)
	Phi        float64 // rotation about the Z axis (radians)
	Rho        float64 // additive density
}

// contains reports whether world point (x, y, z) lies inside the ellipsoid.
func (e Ellipsoid) contains(x, y, z float64) bool {
	sin, cos := math.Sincos(e.Phi)
	dx, dy, dz := x-e.X0, y-e.Y0, z-e.Z0
	// Rotate by -Phi into the ellipsoid frame.
	rx := float64(cos*dx) + float64(sin*dy)
	ry := float64(-sin*dx) + float64(cos*dy)
	q := rx*rx/(e.A*e.A) + ry*ry/(e.B*e.B) + dz*dz/(e.C*e.C)
	return q <= 1
}

// seen is an ellipsoid as seen from one fixed ray origin: what its chord
// needs that does not depend on the ray's direction.
type seen struct {
	Ellipsoid
	sin, cos float64       // Φ's sine and cosine
	q0       geometry.Vec3 // the origin in the unit-sphere frame
	c0       float64       // q0·q0 − 1
}

// from prepares e for rays leaving origin o.
func (e Ellipsoid) from(o geometry.Vec3) seen {
	sin, cos := math.Sincos(e.Phi)
	// Transform the origin into the unit-sphere frame.
	ox, oy, oz := o.X-e.X0, o.Y-e.Y0, o.Z-e.Z0
	q0 := geometry.Vec3{
		X: (float64(cos*ox) + float64(sin*oy)) / e.A,
		Y: (float64(-sin*ox) + float64(cos*oy)) / e.B,
		Z: oz / e.C,
	}
	return seen{Ellipsoid: e, sin: sin, cos: cos, q0: q0, c0: q0.Dot(q0) - 1}
}

// chord returns the length of the intersection of the ray leaving the
// prepared origin along dir with the ellipsoid. dir must be unit length so
// the chord is in world units. Intersections behind the ray origin are
// clipped (the X-ray source is outside the object in any valid geometry).
func (e *seen) chord(dir geometry.Vec3) float64 {
	// Transform the direction into the unit-sphere frame.
	d := geometry.Vec3{
		X: (float64(e.cos*dir.X) + float64(e.sin*dir.Y)) / e.A,
		Y: (float64(-e.sin*dir.X) + float64(e.cos*dir.Y)) / e.B,
		Z: dir.Z / e.C,
	}
	a := d.Dot(d)
	b := 2 * e.q0.Dot(d)
	disc := float64(b*b) - float64(4*a*e.c0)
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

// Phantom is a set of ellipsoids with additive densities.
type Phantom struct {
	Ellipsoids []Ellipsoid
}

// View is a phantom as seen from one fixed ray origin — the source of one
// projection. Each ellipsoid's rotation, the origin in its unit-sphere frame
// and q0·q0 − 1 are computed once, by From; LineIntegral then does only the
// work that depends on the ray's direction, with the float64 operations of
// the one-ray chord in the same order. The zero View is ready to use, and
// one View is reused across projections.
type View struct {
	els []seen
}

// From sets v to p as seen from origin o, reusing v's storage.
func (v *View) From(p Phantom, o geometry.Vec3) {
	v.els = v.els[:0]
	for _, e := range p.Ellipsoids {
		v.els = append(v.els, e.from(o))
	}
}

// LineIntegral returns the exact integral of the density along the ray
// leaving v's origin along the unit direction dir.
func (v *View) LineIntegral(dir geometry.Vec3) float64 {
	var sum float64
	for i := range v.els {
		e := &v.els[i]
		if l := e.chord(dir); l > 0 {
			sum += float64(l * e.Rho)
		}
	}
	return sum
}

// Density returns the phantom density at world point (x, y, z).
func (p Phantom) Density(x, y, z float64) float64 {
	var rho float64
	for _, e := range p.Ellipsoids {
		if e.contains(x, y, z) {
			rho += e.Rho
		}
	}
	return rho
}

// LineIntegral returns the exact integral of the density along the ray
// (chord length × density, summed over ellipsoids). It is the one-ray form
// of View.LineIntegral.
func (p Phantom) LineIntegral(r geometry.Ray) float64 {
	var v View
	v.From(p, r.Origin)
	return v.LineIntegral(r.Dir)
}

// Voxelize samples the phantom at the voxel centres of the geometry's
// volume grid, producing the ground-truth volume for reconstruction error
// measurements. The result uses the i-major layout.
func (p Phantom) Voxelize(g geometry.Params) *volume.Volume {
	vol := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				x, y, z := g.VoxelCenter(float64(i), float64(j), float64(k))
				vol.Set(i, j, k, float32(p.Density(x, y, z)))
			}
		}
	}
	return vol
}

// sheppLoganSpec is the canonical 3-D Shepp–Logan parameterization on the
// unit sphere (semi-axes, centre, Z-rotation in degrees, density), after
// Kak & Slaney and the common phantom3d tool.
var sheppLoganSpec = [10][8]float64{
	// a, b, c, x0, y0, z0, phiDeg, rho
	{0.6900, 0.920, 0.810, 0, 0, 0, 0, 1},
	{0.6624, 0.874, 0.780, 0, -0.0184, 0, 0, -0.8},
	{0.1100, 0.310, 0.220, 0.22, 0, 0, -18, -0.2},
	{0.1600, 0.410, 0.280, -0.22, 0, 0, 18, -0.2},
	{0.2100, 0.250, 0.410, 0, 0.35, -0.15, 0, 0.1},
	{0.0460, 0.046, 0.050, 0, 0.1, 0.25, 0, 0.1},
	{0.0460, 0.046, 0.050, 0, -0.1, 0.25, 0, 0.1},
	{0.0460, 0.023, 0.050, -0.08, -0.605, 0, 0, 0.1},
	{0.0230, 0.023, 0.020, 0, -0.606, 0, 0, 0.1},
	{0.0230, 0.046, 0.020, 0.06, -0.605, 0, 0, 0.1},
}

// ByName returns the named phantom ("shepplogan", "sphere" or
// "industrial") sized to 0.9 of g's field-of-view radius: the objects a
// job spec or the ifdk command can ask for.
func ByName(name string, g geometry.Params) (Phantom, error) {
	r := g.FOVRadius() * 0.9
	switch name {
	case "shepplogan":
		return SheppLogan3D(r), nil
	case "sphere":
		return UniformSphere(r*0.6, 1), nil
	case "industrial":
		return IndustrialBlock(r), nil
	default:
		return Phantom{}, fmt.Errorf("unknown phantom %q", name)
	}
}

// SheppLogan3D returns the modified (high-contrast) 3-D Shepp–Logan head
// phantom scaled so its bounding unit sphere has the given radius in world
// units. Pick radius ≲ the geometry's FOVRadius so the whole head is imaged.
func SheppLogan3D(radius float64) Phantom {
	out := Phantom{Ellipsoids: make([]Ellipsoid, 0, len(sheppLoganSpec))}
	for _, s := range sheppLoganSpec {
		out.Ellipsoids = append(out.Ellipsoids, Ellipsoid{
			A: s[0] * radius, B: s[1] * radius, C: s[2] * radius,
			X0: s[3] * radius, Y0: s[4] * radius, Z0: s[5] * radius,
			Phi: s[6] * math.Pi / 180,
			Rho: s[7],
		})
	}
	return out
}

// UniformSphere returns a single homogeneous sphere, the simplest object
// with a closed-form everything — used to pin down the absolute
// reconstruction scale of the FDK pipeline.
func UniformSphere(radius, rho float64) Phantom {
	return Phantom{Ellipsoids: []Ellipsoid{{A: radius, B: radius, C: radius, Rho: rho}}}
}

// IndustrialBlock models the paper's non-destructive-inspection use case
// (Sec. 6.1): a dense oblong part containing small low-density voids
// ("defects") that the reconstruction should reveal. All features are
// ellipsoids so projections stay analytic.
func IndustrialBlock(radius float64) Phantom {
	r := radius
	return Phantom{Ellipsoids: []Ellipsoid{
		// The part body: a stubby cylinder approximated by a flat ellipsoid.
		{A: 0.85 * r, B: 0.6 * r, C: 0.7 * r, Rho: 2.0},
		// An internal bore.
		{A: 0.18 * r, B: 0.18 * r, C: 0.75 * r, Rho: -1.6},
		// Three void defects of decreasing size.
		{A: 0.08 * r, B: 0.08 * r, C: 0.08 * r, X0: 0.4 * r, Y0: 0.2 * r, Z0: 0.2 * r, Rho: -2.0},
		{A: 0.05 * r, B: 0.05 * r, C: 0.05 * r, X0: -0.35 * r, Y0: -0.25 * r, Z0: -0.15 * r, Rho: -2.0},
		{A: 0.03 * r, B: 0.03 * r, C: 0.03 * r, X0: 0.1 * r, Y0: -0.38 * r, Z0: 0.35 * r, Rho: -2.0},
		// A denser inclusion (slag).
		{A: 0.06 * r, B: 0.06 * r, C: 0.06 * r, X0: -0.2 * r, Y0: 0.35 * r, Z0: -0.3 * r, Rho: 1.5},
	}}
}
