// Package projector generates cone-beam projections — the input E_i of the
// FDK pipeline. It replaces the RTK forward-projection tool used by the
// paper (Sec. 5.1) with two implementations:
//
//   - Analytic: exact line integrals through an ellipsoid phantom (fast and
//     noise-free; used by tests and benchmarks), and
//   - Raycast: trilinear ray marching through an arbitrary voxel volume
//     (used to project non-analytic objects).
//
// Both produce images in the (Nv rows × Nu cols) detector layout of
// Table 1.
//
// Analytic rendering is split by what each value depends on. Per
// projection: the gantry angle's sine and cosine, the source position and
// the detector centre (geometry.ProjectionRays), per ellipsoid Φ's sine
// and cosine, the source in the unit-sphere frame q0 and q0·q0 − 1
// (phantom.View), and per detector column and ellipsoid whether the
// column's plane through the source meets the ellipsoid (View.Meets), with
// each ellipsoid's first and last such column. Per detector row: the row
// slope, and the ellipsoids the row's plane meets. Per ray: the direction,
// its normalisation and, per ellipsoid both of its planes meet, the
// quadratic's a, b and discriminant. A ray in a plane that misses an
// ellipsoid has a chord ≤ 0 through it, which the sum never adds, so
// leaving it out keeps the pixel's bits. Every hoisted value is an operand
// the per-ray derivation computed anyway, and the per-ray arithmetic keeps
// its operations and their order — divisions by the semi-axes stay
// divisions, never reciprocal multiplies — so a pixel's bits do not depend
// on the split.
// On amd64 Go never fuses a multiply and an add on its own, so this holds
// at every GOAMD64 level; projector_test.go pins it, pixel by pixel,
// against the one-ray derivation the split was made from. Every product
// that feeds an add, here and in phantom, is rounded by an explicit
// float64(…) (halvings included, which Go compiles to a multiply), so
// arm64, ppc64le and s390x cannot fuse one either (ci/run.sh fusion).
package projector

import (
	"math"
	"slices"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/engine"
	"ifdk/pkg/volume"
)

// Renderer renders the analytic projections of one phantom into
// caller-owned images, reusing its per-projection state. A Renderer is not
// safe for concurrent use: parallel callers take one each.
type Renderer struct {
	ph     phantom.Phantom
	g      geometry.Params
	view   phantom.View
	cols   []bool // [i·Nu + u]: column u's plane meets ellipsoid i
	lo, hi []int  // per ellipsoid, its first and last column in cols
	row    []int  // the ellipsoids the current row's plane meets, ascending
	dirs   []geometry.Vec3
	sums   []float64
}

// NewRenderer returns a Renderer for phantom ph under geometry g.
func NewRenderer(ph phantom.Phantom, g geometry.Params) *Renderer {
	return &Renderer{ph: ph, g: g}
}

// Render writes the projection at angle index s into dst, which must be
// g.Nu × g.Nv, by evaluating exact ellipsoid line integrals for every
// detector pixel. A pixel's ray lies in its row's plane and its column's
// plane through the source, so it sums only the ellipsoids both planes
// meet (phantom.View.Meets), in index order; the rest have chords ≤ 0,
// which the sum leaves out anyway. A row that no ellipsoid reaches, and a
// pixel outside the column span of every ellipsoid its row reaches, is +0,
// and its ray is never formed.
func (r *Renderer) Render(dst *volume.Image, s int) {
	beta := r.g.Beta(s)
	rays := geometry.NewProjectionRays(r.g, beta)
	r.view.From(r.ph, rays.Source)
	n, nu := len(r.ph.Ellipsoids), r.g.Nu
	// The planes' normals, (1, −dgx, 0) for a column and (0, dgy, 1) for a
	// row in the rotated frame, are returned to the world by Rz(−β) as the
	// rays are.
	sin, cos := math.Sincos(beta)
	r.cols = slices.Grow(r.cols[:0], n*nu)[:n*nu]
	r.lo, r.hi = slices.Grow(r.lo[:0], n)[:n], slices.Grow(r.hi[:0], n)[:n]
	for i := range n {
		r.lo[i], r.hi[i] = nu, -1
	}
	cu := float64(r.g.DetCenterU()) // a halving, which must not fuse into u − cu
	for u := range nu {
		dgx := (float64(u) - cu) * r.g.Du / r.g.SDD
		nrm := geometry.Vec3{X: cos - float64(sin*dgx), Y: -sin - float64(cos*dgx)}
		for i := range n {
			if r.cols[i*nu+u] = r.view.Meets(i, nrm); r.cols[i*nu+u] {
				r.lo[i], r.hi[i] = min(r.lo[i], u), u
			}
		}
	}
	r.dirs = slices.Grow(r.dirs[:0], nu)[:nu]
	r.sums = slices.Grow(r.sums[:0], nu)[:nu]
	for v := 0; v < r.g.Nv; v++ {
		row := dst.Row(v)
		dgy := rays.RowSlope(float64(v))
		nrm := geometry.Vec3{X: sin * dgy, Y: cos * dgy, Z: 1}
		r.row = r.row[:0]
		lo, hi := nu, -1
		for i := range n {
			if r.lo[i] <= r.hi[i] && r.view.Meets(i, nrm) {
				r.row = append(r.row, i)
				lo, hi = min(lo, r.lo[i]), max(hi, r.hi[i])
			}
		}
		if lo > hi {
			clear(row)
			continue
		}
		clear(row[:lo])
		clear(row[hi+1:])
		dirs, sums := r.dirs[lo:hi+1], r.sums[lo:hi+1]
		for k := range dirs {
			dirs[k] = rays.Dir(float64(lo+k), dgy)
		}
		clear(sums)
		for _, i := range r.row {
			a, b := r.lo[i], r.hi[i]+1
			r.view.Accumulate(i, dirs[a-lo:b-lo], r.cols[i*nu+a:i*nu+b], sums[a-lo:b-lo])
		}
		for k, x := range sums {
			row[lo+k] = float32(x)
		}
	}
}

// Analytic renders the projection at angle index s.
func Analytic(ph phantom.Phantom, g geometry.Params, s int) *volume.Image {
	img := volume.NewImage(g.Nu, g.Nv)
	NewRenderer(ph, g).Render(img, s)
	return img
}

// AnalyticAll renders all Np projections on the given number of workers
// (0 means the engine pool's size).
func AnalyticAll(ph phantom.Phantom, g geometry.Params, workers int) []*volume.Image {
	out := make([]*volume.Image, g.Np)
	engine.ParallelRange(g.Np, workers, func(lo, hi int) {
		r := NewRenderer(ph, g)
		for s := lo; s < hi; s++ {
			out[s] = volume.NewImage(g.Nu, g.Nv)
			r.Render(out[s], s)
		}
	})
	return out
}

// Raycast renders the projection at angle index s by marching each detector
// ray through the voxel volume with trilinear sampling at the given step
// (in world units; a step of half the smallest voxel pitch is a good
// default, see DefaultStep).
func Raycast(vol *volume.Volume, g geometry.Params, s int, step float64) *volume.Image {
	img := volume.NewImage(g.Nu, g.Nv)
	rays := geometry.NewProjectionRays(g, g.Beta(s))
	// March between the two spheres bounding the volume to skip empty space.
	bound := volumeBoundRadius(g)
	for v := 0; v < g.Nv; v++ {
		row := img.Row(v)
		dgy := rays.RowSlope(float64(v))
		for u := range row {
			ray := geometry.Ray{Origin: rays.Source, Dir: rays.Dir(float64(u), dgy)}
			row[u] = float32(marchRay(vol, g, ray, step, bound))
		}
	}
	return img
}

// DefaultStep returns half the smallest voxel pitch, the conventional
// sampling density for ray marching.
func DefaultStep(g geometry.Params) float64 {
	return math.Min(g.Dx, math.Min(g.Dy, g.Dz)) / 2
}

func volumeBoundRadius(g geometry.Params) float64 {
	hx := float64(g.Nx) * g.Dx / 2
	hy := float64(g.Ny) * g.Dy / 2
	hz := float64(g.Nz) * g.Dz / 2
	return math.Sqrt(float64(hx*hx) + float64(hy*hy) + float64(hz*hz))
}

func marchRay(vol *volume.Volume, g geometry.Params, ray geometry.Ray, step, bound float64) float64 {
	// Solve |o + t d|² = bound² for the entry/exit parameters.
	b := 2 * ray.Origin.Dot(ray.Dir)
	c := ray.Origin.Dot(ray.Origin) - float64(bound*bound)
	disc := float64(b*b) - float64(4*c)
	if disc <= 0 {
		return 0
	}
	sq := math.Sqrt(disc)
	t0 := (-b - sq) / 2
	t1 := (-b + sq) / 2
	if t1 < 0 {
		return 0
	}
	if t0 < 0 {
		t0 = 0
	}
	var sum float64
	for t := t0 + float64(step/2); t < t1; t += step {
		p := ray.Origin.Add(ray.Dir.Scale(t))
		sum += sampleTrilinear(vol, g, p)
	}
	return sum * step
}

// sampleTrilinear samples the volume at a world point by inverting the M0
// mapping to fractional voxel indices and blending the 8 neighbours.
func sampleTrilinear(vol *volume.Volume, g geometry.Params, p geometry.Vec3) float64 {
	fi := p.X/g.Dx + float64(float64(g.Nx-1)/2)
	fj := float64(float64(g.Ny-1)/2) - p.Y/g.Dy
	fk := float64(float64(g.Nz-1)/2) - p.Z/g.Dz
	i0 := int(math.Floor(fi))
	j0 := int(math.Floor(fj))
	k0 := int(math.Floor(fk))
	di := fi - float64(i0)
	dj := fj - float64(j0)
	dk := fk - float64(k0)
	var sum float64
	for dz := 0; dz < 2; dz++ {
		wz := dk
		if dz == 0 {
			wz = 1 - dk
		}
		k := k0 + dz
		if k < 0 || k >= vol.Nz {
			continue
		}
		for dy := 0; dy < 2; dy++ {
			wy := dj
			if dy == 0 {
				wy = 1 - dj
			}
			j := j0 + dy
			if j < 0 || j >= vol.Ny {
				continue
			}
			for dx := 0; dx < 2; dx++ {
				wx := di
				if dx == 0 {
					wx = 1 - di
				}
				i := i0 + dx
				if i < 0 || i >= vol.Nx {
					continue
				}
				sum += float64(wx * wy * wz * float64(vol.At(i, j, k)))
			}
		}
	}
	return sum
}
