// Package filter implements the FDK filtering stage (Algorithm 1 of the
// paper): each projection is weighted by the 2-D cosine table F_cos and each
// row is convolved with the 1-D ramp filter F_ramp via FFT (the Convolution
// Theorem path of Sec. 2.2.3).
//
// The paper runs this stage on the CPUs with multi-threading and SIMD; here
// the multi-threading maps to the shared engine scheduler (ApplyBatch) and
// the FFT primitive is internal/fft.
//
// Hot path. Detector rows are real float32, so the production path
// (Apply/ApplyInto) transforms each row with a half-spectrum real FFT and
// multiplies by a precomputed float32 ramp spectrum — no complex128 round
// trip, no per-row allocation (scratch comes from engine buffer pools, and
// ApplyInto may filter a projection in place). The original complex128 path
// is kept as ApplyRef: it is the high-precision reference that parity tests
// and benchmarks compare against.
//
// Scaling. The filtered projections are pre-multiplied by the FDK constants
// θ·d²·τ/2 (angular step × distance-weight numerator × effective detector
// pitch at the isocentre / 2), so that the back-projection stage only
// applies the per-voxel 1/z² weight of Alg. 2/4 and the reconstructed values
// approximate the object density directly.
package filter

import (
	"fmt"
	"math"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/internal/engine"
	"ifdk/internal/fft"
	"ifdk/pkg/volume"
)

// Shared scratch pools for row filtering: one padded real row and one half
// spectrum per in-flight ApplyInto call, reused across rows, projections and
// Filterers (pools key by length, and all Filterers of one geometry share
// lengths).
var (
	rowPool  engine.BufPool[float32]
	specPool engine.BufPool[complex64]
)

// Window selects the apodization applied to the ramp filter's frequency
// response. The paper notes the ramp shape affects image quality but not
// compute intensity (Sec. 2.2.2); all windows here cost the same.
type Window int

const (
	// RamLak is the unapodized band-limited ramp |ω|.
	RamLak Window = iota
	// SheppLogan multiplies the ramp by sinc(f/2), a mild noise reducer.
	SheppLogan
	// Cosine multiplies the ramp by cos(π f/2).
	Cosine
	// Hamming multiplies the ramp by 0.54 + 0.46·cos(π f).
	Hamming
	// Hann multiplies the ramp by 0.5·(1 + cos(π f)).
	Hann
)

// String implements fmt.Stringer.
func (w Window) String() string {
	switch w {
	case RamLak:
		return "ram-lak"
	case SheppLogan:
		return "shepp-logan"
	case Cosine:
		return "cosine"
	case Hamming:
		return "hamming"
	case Hann:
		return "hann"
	default:
		return fmt.Sprintf("Window(%d)", int(w))
	}
}

// gain returns the window multiplier at normalized frequency f ∈ [0, 1]
// (fraction of the Nyquist frequency). All windows equal 1 at f = 0.
func (w Window) gain(f float64) float64 {
	switch w {
	case SheppLogan:
		x := math.Pi * f / 2
		if x == 0 {
			return 1
		}
		return math.Sin(x) / x
	case Cosine:
		return math.Cos(math.Pi * f / 2)
	case Hamming:
		return 0.54 + 0.46*math.Cos(math.Pi*f)
	case Hann:
		return 0.5 * (1 + math.Cos(math.Pi*f))
	default:
		return 1
	}
}

// RampKernel returns the spatial taps of the band-limited ramp filter
// h(n·tau) of Feldkamp et al. (also Kak & Slaney eq. 61) for offsets
// n ∈ [-(n-1), n-1], centred at index n-1:
//
//	h(0) = 1/(4τ²),  h(n even) = 0,  h(n odd) = -1/(n π τ)².
func RampKernel(n int, tau float64) []float64 {
	taps := make([]float64, 2*n-1)
	taps[n-1] = 1 / (4 * tau * tau)
	for k := 1; k < n; k++ {
		if k%2 == 1 {
			v := -1 / (math.Pi * math.Pi * float64(k) * float64(k) * tau * tau)
			taps[n-1+k] = v
			taps[n-1-k] = v
		}
	}
	return taps
}

// CosineTable builds F_cos of size (Nv, Nu) (Table 1): the cone-angle cosine
// D/√(D² + ū² + v̄²) of each detector pixel, with ū, v̄ the physical offsets
// from the detector centre.
func CosineTable(g geometry.Params) *volume.Image {
	tab := volume.NewImage(g.Nu, g.Nv)
	for v := 0; v < g.Nv; v++ {
		vb := (float64(v) - g.DetCenterV()) * g.Dv
		row := tab.Row(v)
		for u := 0; u < g.Nu; u++ {
			ub := (float64(u) - g.DetCenterU()) * g.Du
			row[u] = float32(g.SDD / math.Sqrt(g.SDD*g.SDD+ub*ub+vb*vb))
		}
	}
	return tab
}

// Filterer applies the filtering stage to projections of a fixed geometry.
// It precomputes the cosine table and the windowed ramp spectrum once; a
// Filterer is safe for concurrent use by multiple goroutines.
type Filterer struct {
	g      geometry.Params
	win    Window
	cosTab *volume.Image
	l      int
	// Hot path: half-spectrum real FFT over float32.
	rplan  *fft.RealPlan
	spec32 []float32 // scaled, windowed ramp spectrum, bins 0..L/2 (real-valued)
	// Reference path: the original complex128 round trip (ApplyRef).
	plan *fft.Plan
	spec []complex128 // scaled, windowed ramp spectrum (length L)
}

// New builds a Filterer for the geometry and window.
func New(g geometry.Params, win Window) (*Filterer, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	l := fft.NextPow2(2 * g.Nu)
	plan, err := fft.NewPlan(l)
	if err != nil {
		return nil, err
	}
	// Effective detector pitch rescaled to the virtual detector through the
	// rotation axis: τ = Du·d/D.
	tau := g.Du * g.SAD / g.SDD
	taps := RampKernel(g.Nu, tau)
	// Arrange taps circularly: offset 0 at index 0, negative offsets wrap.
	buf := make([]complex128, l)
	n := g.Nu
	for k := 0; k < n; k++ {
		buf[k] = complex(taps[n-1+k], 0)
	}
	for k := 1; k < n; k++ {
		buf[l-k] = complex(taps[n-1-k], 0)
	}
	plan.Forward(buf)
	// FDK constants folded into the spectrum: θ·d²·τ/2.
	scale := g.Theta() * g.SAD * g.SAD * tau / 2
	for k := range buf {
		f := float64(k)
		if k > l/2 {
			f = float64(l - k)
		}
		f /= float64(l / 2) // fraction of Nyquist
		buf[k] *= complex(scale*win.gain(f), 0)
	}
	// The circular arrangement is symmetric (taps[k] at k and L-k), so the
	// spectrum is real and even: the half spectrum narrows to a float32
	// gain per bin, computed in float64 above and rounded once.
	rplan, err := fft.NewRealPlan(l)
	if err != nil {
		return nil, err
	}
	spec32 := make([]float32, l/2+1)
	for k := range spec32 {
		spec32[k] = float32(real(buf[k]))
	}
	return &Filterer{
		g: g, win: win, cosTab: CosineTable(g), l: l,
		rplan: rplan, spec32: spec32,
		plan: plan, spec: buf,
	}, nil
}

// Geometry returns the geometry this Filterer was built for.
func (f *Filterer) Geometry() geometry.Params { return f.g }

// Window returns the configured apodization window.
func (f *Filterer) Window() Window { return f.win }

// Apply filters one projection E_i, returning the filtered Q_i
// (Alg. 1: Ẽ = E·F_cos, then each row convolved with F_ramp).
func (f *Filterer) Apply(e *volume.Image) (*volume.Image, error) {
	if e.W != f.g.Nu || e.H != f.g.Nv {
		return nil, fmt.Errorf("filter: projection %dx%d does not match geometry %dx%d",
			e.W, e.H, f.g.Nu, f.g.Nv)
	}
	q := volume.NewImage(e.W, e.H)
	return q, f.ApplyInto(e, q)
}

// ApplyInto filters e into q, which must both match the geometry. q may be
// e itself: rows are fully read into pooled scratch before being written
// back, so in-place filtering is safe — the pipeline filters each loaded
// projection in place and never allocates a second image. Steady state
// performs zero heap allocations.
//
//ifdk:hotpath
func (f *Filterer) ApplyInto(e, q *volume.Image) error {
	if e.W != f.g.Nu || e.H != f.g.Nv {
		return fmt.Errorf("filter: projection %dx%d does not match geometry %dx%d",
			e.W, e.H, f.g.Nu, f.g.Nv)
	}
	if q.W != e.W || q.H != e.H {
		return fmt.Errorf("filter: output %dx%d does not match projection %dx%d",
			q.W, q.H, e.W, e.H)
	}
	row := rowPool.Acquire(f.l)
	spec := specPool.Acquire(f.l/2 + 1)
	for v := 0; v < e.H; v++ {
		f.filterRowRFFT(e.Row(v), f.cosTab.Row(v), q.Row(v), row.Data, spec.Data)
	}
	spec.Release()
	row.Release()
	return nil
}

// filterRowRFFT is the hot path: cosine-weight the row, transform with the
// half-spectrum real plan, scale each bin by the real ramp gain, transform
// back. All arithmetic is float32; the O(Nu) loops are kernels calls.
//
//ifdk:hotpath
func (f *Filterer) filterRowRFFT(in, cos, out, row []float32, spec []complex64) {
	kernels.CosineWeight(row, in, cos) // point-wise ·F_cos
	clear(row[len(in):])
	f.rplan.Forward(spec, row)
	kernels.SpectralMul(spec, f.spec32)
	f.rplan.Inverse(row, spec)
	copy(out, row[:len(out)])
}

// ApplyRef filters one projection through the original complex128 path. It
// is the high-precision reference implementation: parity tests pin the RFFT
// hot path to it, and BenchmarkFilterRFFT measures the gap. Not used by the
// pipeline.
func (f *Filterer) ApplyRef(e *volume.Image) (*volume.Image, error) {
	if e.W != f.g.Nu || e.H != f.g.Nv {
		return nil, fmt.Errorf("filter: projection %dx%d does not match geometry %dx%d",
			e.W, e.H, f.g.Nu, f.g.Nv)
	}
	q := volume.NewImage(e.W, e.H)
	buf := make([]complex128, f.l)
	for v := 0; v < e.H; v++ {
		f.filterRow(e.Row(v), f.cosTab.Row(v), q.Row(v), buf)
	}
	return q, nil
}

func (f *Filterer) filterRow(in, cos, out []float32, buf []complex128) {
	for u := range buf {
		buf[u] = 0
	}
	for u := range in {
		buf[u] = complex(float64(in[u])*float64(cos[u]), 0) // point-wise ·F_cos
	}
	f.plan.Forward(buf)
	for k := range buf {
		buf[k] *= f.spec[k]
	}
	f.plan.Inverse(buf)
	for u := range out {
		out[u] = float32(real(buf[u]))
	}
}

// Sweep filters every projection of ins into the matching entry of outs in
// one shared pass: all rows of all projections form a single flat index
// space scheduled as one engine.ParallelRange, so N co-scheduled projections
// cost one sweep over the cosine table and ramp spectrum instead of N.
// workers 0 means GOMAXPROCS. outs[i] may be ins[i] (rows are
// staged through pooled scratch, as in ApplyInto). Dimensions are validated
// up front; nothing is written when an error is returned. Steady state
// allocates nothing beyond the scheduler's pooled job descriptors.
//
//ifdk:hotpath
func (f *Filterer) Sweep(ins, outs []*volume.Image, workers int) error {
	if len(ins) != len(outs) {
		return fmt.Errorf("filter: sweep over %d inputs with %d outputs", len(ins), len(outs))
	}
	for n, e := range ins {
		if e.W != f.g.Nu || e.H != f.g.Nv {
			return fmt.Errorf("filter: projection %d is %dx%d, does not match geometry %dx%d",
				n, e.W, e.H, f.g.Nu, f.g.Nv)
		}
		if q := outs[n]; q.W != e.W || q.H != e.H {
			return fmt.Errorf("filter: output %d is %dx%d, does not match projection %dx%d",
				n, q.W, q.H, e.W, e.H)
		}
	}
	nv := f.g.Nv
	engine.ParallelRange(len(ins)*nv, workers, func(lo, hi int) {
		row := rowPool.Acquire(f.l)
		spec := specPool.Acquire(f.l/2 + 1)
		for idx := lo; idx < hi; idx++ {
			e, q, v := ins[idx/nv], outs[idx/nv], idx%nv
			f.filterRowRFFT(e.Row(v), f.cosTab.Row(v), q.Row(v), row.Data, spec.Data)
		}
		spec.Release()
		row.Release()
	})
	return nil
}

// ApplyBatch filters a batch of projections with the given number of worker
// goroutines (0 means GOMAXPROCS), mirroring the OpenMP parallel filtering
// inside each rank's Filtering-thread (Sec. 4.1.3). It is Sweep with
// pool-acquired outputs: scheduling is the shared row sweep and the result
// order matches the input order. The outputs are acquired from
// engine.Images: callers that are done with them may hand them back via
// engine.Images.Release (optional — an output that escapes simply becomes
// ordinary garbage).
func (f *Filterer) ApplyBatch(imgs []*volume.Image, workers int) ([]*volume.Image, error) {
	out := make([]*volume.Image, len(imgs))
	for i := range out {
		out[i] = engine.Images.Acquire(f.g.Nu, f.g.Nv)
	}
	if err := f.Sweep(imgs, out, workers); err != nil {
		for _, q := range out {
			engine.Images.Release(q)
		}
		return nil, err
	}
	return out, nil
}
