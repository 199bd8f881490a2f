package main

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"
)

// hostProbe tells how fast the host is right now. The sandbox this
// benchmark runs in changes speed under it, by a factor of up to 1.9 for
// minutes at a time (README, "What this host can resolve"), and the CPU
// seconds it charges change with it; a time measured there says as much about
// the minute it was measured in as about the program. So every round times
// this fixed piece of work beside its jobs, and the end-to-end times are
// reported at the speed at which the probe takes its nominal time.
//
// The probe is a plain cone-beam FDK of its own on a few projections of the
// workload's shape (ramp filtering through a radix-2 FFT, voxel-driven
// back-projection with bilinear interpolation, on as many goroutines as there
// are processors), so that what slows the service's kernels slows it too:
// a probe that only multiplies floats slows by 1.4 where projection_heavy
// slows by 1.9. It shares no code with the repository. It must not change
// when the program does: it belongs to the benchmark, and a change that
// claims a gain may not edit the benchmark.
type hostProbe struct {
	nu, nx, np int
	pad        int           // FFT length: the next power of two ≥ 2·nu
	twiddle    []complex64   // e^(−2πik/pad), k < pad/2
	ramp       []float32     // |frequency| response, length pad
	sin, cos   []float32     // per projection angle
	proj, flt  [][]float32   // np images of nu×nu: input and filtered
	vol        []float32     // nx³
	rows       [][]complex64 // one FFT row buffer per goroutine
	workers    int
	sink       float32
}

func newHostProbe(nu, nx, np int) *hostProbe {
	p := &hostProbe{nu: nu, nx: nx, np: np, workers: runtime.GOMAXPROCS(0)}
	p.pad = 1 << bits.Len(uint(2*nu-1))
	p.twiddle = make([]complex64, p.pad/2)
	for k := range p.twiddle {
		a := -2 * math.Pi * float64(k) / float64(p.pad)
		p.twiddle[k] = complex(float32(math.Cos(a)), float32(math.Sin(a)))
	}
	p.ramp = make([]float32, p.pad)
	for k := range p.ramp {
		p.ramp[k] = float32(min(k, p.pad-k)) / float32(p.pad)
	}
	state := uint32(12345) // fixed inputs: the probe is the same work every time
	for i := 0; i < np; i++ {
		a := 2 * math.Pi * float64(i) / float64(np)
		p.sin, p.cos = append(p.sin, float32(math.Sin(a))), append(p.cos, float32(math.Cos(a)))
		img := make([]float32, nu*nu)
		for j := range img {
			state = state*1664525 + 1013904223
			img[j] = float32(state>>8) / (1 << 24)
		}
		p.proj, p.flt = append(p.proj, img), append(p.flt, make([]float32, nu*nu))
	}
	p.vol = make([]float32, nx*nx*nx)
	for w := 0; w < p.workers; w++ {
		p.rows = append(p.rows, make([]complex64, p.pad))
	}
	return p
}

// run does the probe's work once and returns how long it took. It allocates
// nothing, so it neither triggers a collection nor shows in the allocation
// counters of the phase it is called in.
func (p *hostProbe) run() float64 {
	t0 := time.Now()
	p.parallel(p.np, p.filter)
	p.parallel(p.nx, p.backproject)
	p.sink += p.vol[len(p.vol)/2]
	return time.Since(t0).Seconds()
}

// parallel runs f over [0, n) in contiguous shares, one per worker.
func (p *hostProbe) parallel(n int, f func(worker, lo, hi int)) {
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w, n*w/p.workers, n*(w+1)/p.workers)
		}()
	}
	wg.Wait()
}

// filter ramp-filters every row of projections lo..hi.
func (p *hostProbe) filter(worker, lo, hi int) {
	row := p.rows[worker]
	for i := lo; i < hi; i++ {
		for v := 0; v < p.nu; v++ {
			src := p.proj[i][v*p.nu : (v+1)*p.nu]
			for u := range row {
				row[u] = 0
			}
			for u, x := range src {
				row[u] = complex(x, 0)
			}
			p.fft(row, false)
			for k := range row {
				row[k] *= complex(p.ramp[k], 0)
			}
			p.fft(row, true)
			dst := p.flt[i][v*p.nu : (v+1)*p.nu]
			for u := range dst {
				dst[u] = real(row[u]) / float32(p.pad)
			}
		}
	}
}

// fft is an in-place iterative radix-2 transform of len(p.twiddle)·2 points.
func (p *hostProbe) fft(x []complex64, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := range x {
		if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size/2, n/size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := p.twiddle[k*step]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				a, b := x[start+k], x[start+k+half]*w
				x[start+k], x[start+k+half] = a+b, a-b
			}
		}
	}
}

// backproject accumulates every filtered projection into slices lo..hi of the
// volume, voxel by voxel.
func (p *hostProbe) backproject(_, lo, hi int) {
	nx, nu := p.nx, p.nu
	const sourceDist = 4 // in units of the volume's half width
	scale := float32(nu) / 2 * 0.7
	centre := float32(nu-1) / 2
	for z := lo; z < hi; z++ {
		fz := (float32(z)+0.5)/float32(nx)*2 - 1
		for y := 0; y < nx; y++ {
			fy := (float32(y)+0.5)/float32(nx)*2 - 1
			out := p.vol[(z*nx+y)*nx : (z*nx+y+1)*nx]
			for x := range out {
				out[x] = 0
			}
			for i, img := range p.flt {
				sin, cos := p.sin[i], p.cos[i]
				for x := range out {
					fx := (float32(x)+0.5)/float32(nx)*2 - 1
					mag := sourceDist / (sourceDist + fx*sin - fy*cos)
					u := (fx*cos+fy*sin)*mag*scale + centre
					v := fz*mag*scale + centre
					iu, iv := int(u), int(v)
					if u < 0 || v < 0 || iu+1 >= nu || iv+1 >= nu {
						continue
					}
					du, dv := u-float32(iu), v-float32(iv)
					r0, r1 := img[iv*nu+iu:iv*nu+iu+2], img[(iv+1)*nu+iu:(iv+1)*nu+iu+2]
					out[x] += mag * mag * ((r0[0]*(1-du)+r0[1]*du)*(1-dv) + (r1[0]*(1-du)+r1[1]*du)*dv)
				}
			}
		}
	}
}
