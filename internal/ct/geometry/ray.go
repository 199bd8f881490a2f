package geometry

import "math"

// Vec3 is a 3-D vector in world coordinates.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a+b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a-b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s·a.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{s * a.X, s * a.Y, s * a.Z} }

// Dot returns a·b.
func (a Vec3) Dot(b Vec3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Norm returns |a|.
func (a Vec3) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Normalize returns a/|a| (or the zero vector when |a| = 0).
func (a Vec3) Normalize() Vec3 {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return a.Scale(1 / n)
}

// SourcePosition returns the X-ray source location in world coordinates at
// gantry angle β. It is the preimage of the camera origin:
// S(β) = Rz(-β) · (0, -d, 0)ᵀ = (-d·sin β, -d·cos β, 0).
func SourcePosition(p Params, beta float64) Vec3 {
	sin, cos := math.Sincos(beta)
	return Vec3{-p.SAD * sin, -p.SAD * cos, 0}
}

// Ray is a parametric half-line Origin + t·Dir with |Dir| = 1.
type Ray struct {
	Origin Vec3
	Dir    Vec3
}

// DetectorRay returns the ray from the source through the centre of detector
// pixel (u, v) at gantry angle β, in world coordinates. It is the one-ray
// form of ProjectionRays.
func DetectorRay(p Params, beta, u, v float64) Ray {
	pr := NewProjectionRays(p, beta)
	return Ray{Origin: pr.Source, Dir: pr.Dir(u, pr.RowSlope(v))}
}

// ProjectionRays generates the detector rays of one projection. What does
// not depend on the pixel — the gantry angle's sine and cosine, the source
// position and the detector centre — is computed once here; RowSlope does
// the per-row work and Dir the per-pixel work. Every ray carries the float64
// operations of the one-ray derivation in the same order, so its bits do
// not depend on which of the two forms built it.
type ProjectionRays struct {
	Source      Vec3 // origin of every ray: SourcePosition at β
	sin, cos    float64
	cu, cv      float64 // detector centre
	du, dv, sdd float64
}

// NewProjectionRays sets up the rays of the projection at gantry angle β.
func NewProjectionRays(p Params, beta float64) ProjectionRays {
	sin, cos := math.Sincos(beta)
	return ProjectionRays{
		Source: SourcePosition(p, beta),
		sin:    sin, cos: cos,
		cu: p.DetCenterU(), cv: p.DetCenterV(),
		du: p.Du, dv: p.Dv, sdd: p.SDD,
	}
}

// RowSlope returns detector row v's camera-frame slope (v-cv)·Dv/D, the
// part of a ray's direction that is shared along the row.
func (pr *ProjectionRays) RowSlope(v float64) float64 {
	return (v - pr.cv) * pr.dv / pr.sdd
}

// Dir returns the unit direction of the ray through detector pixel (u, v),
// given v's RowSlope. It inverts the M1 and Mrot transforms: in the camera
// frame the ray direction is ((u-cu)·Du/D, (v-cv)·Dv/D, 1); the axis
// permutation of Mrot maps camera (x, y, z) to rotated-world (x, z, -y),
// which Rz(-β) returns to the world.
func (pr *ProjectionRays) Dir(u, dgy float64) Vec3 {
	dgx := (u - pr.cu) * pr.du / pr.sdd
	// Camera → rotated world: x_r = g.x, y_r = g.z, z_r = -g.y.
	dr := Vec3{dgx, 1, -dgy}
	// World = Rz(-β) · rotated.
	dw := Vec3{
		pr.cos*dr.X + pr.sin*dr.Y,
		-pr.sin*dr.X + pr.cos*dr.Y,
		dr.Z,
	}
	return dw.Normalize()
}
