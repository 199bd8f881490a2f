// Package filter implements the FDK filtering stage (Algorithm 1 of the
// paper): each projection is weighted by the 2-D cosine table F_cos and each
// row is convolved with the 1-D ramp filter F_ramp via FFT (the Convolution
// Theorem path of Sec. 2.2.3).
//
// The paper runs this stage on the CPUs with multi-threading and SIMD; here
// the multi-threading maps to the shared engine scheduler (Sweep), the FFT
// primitives are the radix-4 passes of internal/ct/kernels, and the SIMD is
// their AVX2 tier, bit-identical to the portable passes.
//
// Hot path. Detector rows are real float32 and the ramp spectrum is real and
// even, so the filter works on two rows per complex FFT: rows 2k and 2k+1
// of a projection are cosine-weighted into the real and imaginary parts of
// one zero-padded complex64 row, and one core (convolve → kernels.Convolve)
// transforms it by decimation in frequency (natural in, bit-reversed out),
// multiplies it by the ramp gain — stored once in bit-reversed order with
// 1/L folded in — and transforms it back by decimation in time
// (bit-reversed in, natural out); on AVX2 the two smallest passes of each
// transform and the gain run as one loop over blocks held in registers. A
// real gain never mixes the two parts, so they come back as the two
// filtered rows: no permutation, no half-spectrum unpack, no scaling pass.
//
// The core has two ends. ApplyEncoded, the pipeline's, weights each pair
// straight from a staged projection's little-endian payload bytes and
// stores the filtered pairs into the transposed block back-projection
// reads, eight pairs at a time so that each detector column receives one
// 64-byte run: no decoded image, no filtered image, no separate transpose.
// Apply, ApplyInto and Sweep, for fdk, preview and verification, read and
// write images (ApplyInto may filter in place). Scratch comes from an
// engine buffer pool, so neither end allocates per row or per projection.
// The complex128 row-at-a-time path the parity tests compare against lives
// in ref_test.go.
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
	"math/bits"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/internal/engine"
	"ifdk/internal/fft"
	"ifdk/pkg/volume"
)

// pairPool holds the scratch of the row-pair path: one padded complex row
// per in-flight ApplyInto call or Sweep chunk, kernels.LinePairs of them per
// ApplyEncoded call, reused across pairs, projections and Filterers (the
// pool keys by length, and all Filterers of one geometry share it).
var pairPool engine.BufPool[complex64]

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
//
// Containment. Rows are filtered in fixed pairs — always (2k, 2k+1) of the
// same projection, an odd last row paired with zeros — so the result does
// not depend on how rows are scheduled: ApplyInto and Sweep at any worker
// count are bit-identical. The two rows of a pair share one complex
// transform, so each sees the other's rounding error (within the same 1e-6
// of the pair's peak as the transform itself), and a NaN or ±Inf in one row
// poisons its pair partner as well as its own row. It never reaches another
// pair.
type Filterer struct {
	g      geometry.Params
	win    Window
	cosTab *volume.Image
	l      int
	fwd    []complex64 // kernels.FFTTwiddles(l), forward
	inv    []complex64 // … and inverse
	gain   []float32   // scaled, windowed ramp spectrum / l, in bit-reversed bin order
	zero   []float32   // the partner of an odd last row, and its cosines
	zeroLE []byte      // … as encoded payload bytes
}

// New builds a Filterer for the geometry and window.
func New(g geometry.Params, win Window) (*Filterer, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	l := fft.NextPow2(2 * g.Nu)
	spec, err := rampSpectrum(g, win, l)
	if err != nil {
		return nil, err
	}
	// The spectrum is real and even, so it narrows to a float32 gain per
	// bin, computed in float64 and rounded once. It is stored where the
	// forward transform leaves each bin and carries the inverse's 1/l.
	gain := make([]float32, l)
	shift := 32 - bits.TrailingZeros(uint(l))
	for i := range gain {
		k := int(uint64(bits.Reverse32(uint32(i))) >> shift)
		gain[i] = float32(real(spec[k]) / float64(l))
	}
	return &Filterer{
		g: g, win: win, cosTab: CosineTable(g), l: l,
		fwd: kernels.FFTTwiddles(l, false), inv: kernels.FFTTwiddles(l, true),
		gain: gain, zero: make([]float32, g.Nu), zeroLE: make([]byte, 4*g.Nu),
	}, nil
}

// rampSpectrum returns the length-l spectrum of the windowed ramp filter
// with the FDK constants folded in. The taps are arranged symmetrically
// (offset k at k and l-k), so it is real and even.
func rampSpectrum(g geometry.Params, win Window, l int) ([]complex128, error) {
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
	return buf, nil
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
// e itself: both rows of a pair are fully read into pooled scratch before
// either is written back, so in-place filtering is safe — the pipeline
// filters each loaded projection in place and never allocates a second
// image. Steady state performs zero heap allocations.
func (f *Filterer) ApplyInto(e, q *volume.Image) error {
	if e.W != f.g.Nu || e.H != f.g.Nv {
		return fmt.Errorf("filter: projection %dx%d does not match geometry %dx%d",
			e.W, e.H, f.g.Nu, f.g.Nv)
	}
	if q.W != e.W || q.H != e.H {
		return fmt.Errorf("filter: output %dx%d does not match projection %dx%d",
			q.W, q.H, e.W, e.H)
	}
	buf := pairPool.Acquire(f.l)
	for v := 0; v < e.H; v += 2 {
		f.filterPair(e, q, v, buf.Data)
	}
	buf.Release()
	return nil
}

// ApplyEncoded filters one staged projection straight from its encoded
// bytes (the volume.ImageToBytes format) into block, the Nu×Nv transposed
// layout Alg. 4 line 3 back-projects (V fast: block[u·Nv+v]). It equals
// decoding the blob, ApplyInto and a transpose, bit for bit, without any
// of the three: each row pair is cosine-weighted from the payload bytes
// and goes through the same core as ApplyInto's pairs, and every
// kernels.LinePairs filtered pairs are stored into the block a whole
// column run at a time. The header is checked as volume.ImageFromBytesInto
// checks it, and block must hold Nu·Nv values; nothing is written when an
// error is returned. Steady state performs zero heap allocations.
func (f *Filterer) ApplyEncoded(blob []byte, block []float32) error {
	nu, nv := f.g.Nu, f.g.Nv
	payload, err := volume.ImagePayload(blob, nu, nv)
	if err != nil {
		return err
	}
	if len(block) != nu*nv {
		return fmt.Errorf("filter: transposed block of %d values for a %dx%d projection", len(block), nu, nv)
	}
	row := 4 * nu // payload bytes per detector row
	stash := pairPool.Acquire(kernels.LinePairs * f.l)
	for v0 := 0; v0 < nv; v0 += 2 * kernels.LinePairs {
		rows := min(2*kernels.LinePairs, nv-v0)
		for p := 0; 2*p < rows; p++ {
			v := v0 + 2*p
			buf := stash.Data[p*f.l : (p+1)*f.l]
			src1, cos1 := f.zeroLE, f.zero
			if v+1 < nv {
				src1, cos1 = payload[(v+1)*row:(v+2)*row], f.cosTab.Row(v+1)
			}
			kernels.CosineWeightPairLE(buf, payload[v*row:(v+1)*row], f.cosTab.Row(v), src1, cos1)
			f.convolve(buf)
		}
		kernels.TransposePairs(block[v0:], nv, stash.Data, f.l, nu, rows)
	}
	stash.Release()
	return nil
}

// filterPair is the image end of the filter: rows v and v+1 of e (v even)
// through the core into the same rows of q.
func (f *Filterer) filterPair(e, q *volume.Image, v int, buf []complex64) {
	paired := v+1 < e.H
	if paired {
		kernels.CosineWeightPair(buf, e.Row(v), f.cosTab.Row(v), e.Row(v+1), f.cosTab.Row(v+1))
	} else {
		kernels.CosineWeightPair(buf, e.Row(v), f.cosTab.Row(v), f.zero, f.zero)
	}
	f.convolve(buf)
	out := q.Row(v)
	if !paired {
		for u := range out {
			out[u] = real(buf[u])
		}
		return
	}
	out1 := q.Row(v + 1)[:len(out)]
	buf = buf[:len(out)]
	for u := range out {
		out[u], out1[u] = real(buf[u]), imag(buf[u])
	}
}

// convolve is the one filter core both ends share: a cosine-weighted row
// pair in buf[:Nu], zero-padded to L, forward transform, ramp gain and
// inverse transform in one kernel call. All arithmetic is float32.
func (f *Filterer) convolve(buf []complex64) {
	clear(buf[f.g.Nu:])
	kernels.Convolve(buf, f.fwd, f.gain, f.inv)
}

// Sweep filters every projection of ins into the matching entry of outs in
// one shared pass: all row pairs of all projections form a single flat index
// space scheduled as one engine.ParallelRange, so N co-scheduled projections
// cost one sweep over the cosine table and ramp gain instead of N.
// workers 0 means GOMAXPROCS; the result does not depend on it. outs[i] may
// be ins[i] (pairs are staged through pooled scratch, as in ApplyInto).
// Dimensions are validated up front; nothing is written when an error is
// returned. Steady state allocates nothing per pair or per projection: one
// closure per sweep, retained by the scheduler's pooled job descriptor.
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
	pairs := (f.g.Nv + 1) / 2
	engine.ParallelRange(len(ins)*pairs, workers, func(lo, hi int) {
		buf := pairPool.Acquire(f.l)
		for idx := lo; idx < hi; idx++ {
			f.filterPair(ins[idx/pairs], outs[idx/pairs], 2*(idx%pairs), buf.Data)
		}
		buf.Release()
	})
	return nil
}
