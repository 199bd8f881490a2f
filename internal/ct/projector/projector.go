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
package projector

import (
	"context"
	"math"
	"runtime"
	"sync"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/pkg/volume"
)

// Analytic renders the projection at angle index s by evaluating exact
// ellipsoid line integrals for every detector pixel.
func Analytic(ph phantom.Phantom, g geometry.Params, s int) *volume.Image {
	img := volume.NewImage(g.Nu, g.Nv)
	beta := g.Beta(s)
	for v := 0; v < g.Nv; v++ {
		row := img.Row(v)
		for u := 0; u < g.Nu; u++ {
			ray := geometry.DetectorRay(g, beta, float64(u), float64(v))
			row[u] = float32(ph.LineIntegral(ray))
		}
	}
	return img
}

// AnalyticAll renders all Np projections using the given number of worker
// goroutines (0 means GOMAXPROCS).
func AnalyticAll(ph phantom.Phantom, g geometry.Params, workers int) []*volume.Image {
	out, _ := AnalyticAllCtx(context.Background(), ph, g, workers)
	return out
}

// AnalyticAllCtx is AnalyticAll under a context: cancellation is checked
// between projections, so a cancelled job (or a daemon shutdown) stops
// synthesizing mid-scan instead of rendering the whole dataset. On
// cancellation it returns ctx's error and a nil slice; already-rendered
// projections become garbage.
func AnalyticAllCtx(ctx context.Context, ph phantom.Phantom, g geometry.Params, workers int) ([]*volume.Image, error) {
	out := make([]*volume.Image, g.Np)
	parallelFor(g.Np, workers, func(s int) {
		if ctx.Err() != nil {
			return // drain remaining indices without rendering
		}
		out[s] = Analytic(ph, g, s)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Raycast renders the projection at angle index s by marching each detector
// ray through the voxel volume with trilinear sampling at the given step
// (in world units; a step of half the smallest voxel pitch is a good
// default, see DefaultStep).
func Raycast(vol *volume.Volume, g geometry.Params, s int, step float64) *volume.Image {
	img := volume.NewImage(g.Nu, g.Nv)
	beta := g.Beta(s)
	// March between the two spheres bounding the volume to skip empty space.
	bound := volumeBoundRadius(g)
	for v := 0; v < g.Nv; v++ {
		row := img.Row(v)
		for u := 0; u < g.Nu; u++ {
			ray := geometry.DetectorRay(g, beta, float64(u), float64(v))
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
	return math.Sqrt(hx*hx + hy*hy + hz*hz)
}

func marchRay(vol *volume.Volume, g geometry.Params, ray geometry.Ray, step, bound float64) float64 {
	// Solve |o + t d|² = bound² for the entry/exit parameters.
	b := 2 * ray.Origin.Dot(ray.Dir)
	c := ray.Origin.Dot(ray.Origin) - bound*bound
	disc := b*b - 4*c
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
	for t := t0 + step/2; t < t1; t += step {
		p := ray.Origin.Add(ray.Dir.Scale(t))
		sum += sampleTrilinear(vol, g, p)
	}
	return sum * step
}

// sampleTrilinear samples the volume at a world point by inverting the M0
// mapping to fractional voxel indices and blending the 8 neighbours.
func sampleTrilinear(vol *volume.Volume, g geometry.Params, p geometry.Vec3) float64 {
	fi := p.X/g.Dx + float64(g.Nx-1)/2
	fj := float64(g.Ny-1)/2 - p.Y/g.Dy
	fk := float64(g.Nz-1)/2 - p.Z/g.Dz
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
				sum += wx * wy * wz * float64(vol.At(i, j, k))
			}
		}
	}
	return sum
}

// parallelFor runs body(i) for i in [0, n) on the given number of workers.
func parallelFor(n, workers int, body func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next sync.Mutex
	cursor := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := cursor
				cursor++
				next.Unlock()
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}
