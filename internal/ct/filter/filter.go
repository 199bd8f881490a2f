// Package filter implements the FDK filtering stage (Algorithm 1 of the
// paper): each projection is weighted by the 2-D cosine table F_cos and each
// row is convolved with the 1-D ramp filter F_ramp via FFT (the Convolution
// Theorem path of Sec. 2.2.3).
//
// The paper runs this stage on the CPUs with multi-threading and SIMD; here
// the multi-threading is the callers' (a rank's filter thread, or the serial
// loop's engine.ParallelRange over a batch of projections), the FFT
// primitives are the radix-4 passes of internal/ct/kernels, and the SIMD is
// their AVX2 and AVX-512 tiers, bit-identical to the portable passes.
//
// Hot path. Detector rows are real float32 and the ramp spectrum is real and
// even, so the filter works on two rows per complex FFT: rows 2k and 2k+1 of a
// projection are cosine-weighted into the real and imaginary parts of one
// zero-padded complex64 row, and one core (kernels.Convolve, or
// kernels.ConvolvePairLE with its ends fused) transforms it by decimation in
// frequency (natural in, bit-reversed out), multiplies it by the ramp gain —
// stored once in bit-reversed order with 1/L folded in — and transforms it back
// by decimation in time (bit-reversed in, natural out); the smallest passes of
// each transform and the gain run as one loop over blocks held in registers. A
// real gain never mixes the two parts, so they come back as the two filtered
// rows: no permutation, no half-spectrum unpack, no scaling pass.
//
// The core has one end. ApplyEncoded — the pipeline's, and the serial
// verification's — weights each pair straight from a staged projection's
// little-endian payload bytes and stores the filtered pairs into the transposed
// block back-projection reads, eight pairs at a time so that each detector
// column receives one 64-byte run: no decoded image, no filtered image, no
// separate transpose. On AVX-512 hosts its two ends live inside the transform
// (kernels.ConvolvePairLE and kernels.TransposeConvolved): the first DIF pass
// weights the payload bytes and never touches the zero half of the padded row,
// the next pair's bytes are prefetched while this one is transformed, and the
// last DIT pass computes only the Nu outputs it keeps, straight into the block.
// ApplyImage runs the same end on an in-memory image, encoded once into pooled
// payload bytes (an encoded float32 is its own bits, so nothing is rounded):
// fdk.Reconstruct and the preview tier filter in-memory projections with it.
// ApplyInto and Sweep, which return filtered images in the detector layout, are
// wrappers over ApplyImage that only the benchmark's layer probes call; they go
// when those probes time the pipeline's entry (ROADMAP item 1(c)). Scratch comes
// from engine buffer pools, so no entry allocates per row or per projection.
// The complex128 row-at-a-time path the parity tests compare against lives in
// ref_test.go.
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

// pairPool holds the scratch of the row-pair path: kernels.LinePairs padded
// complex rows per call, reused across pairs, projections and Filterers (the
// pool keys by length, and all Filterers of one geometry share it).
// payloadPool holds ApplyImage's encoded payloads, one per call.
var (
	pairPool    engine.BufPool[complex64]
	payloadPool engine.BufPool[byte]
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

// ParseWindow returns the window whose String is name.
func ParseWindow(name string) (Window, error) {
	for _, w := range []Window{RamLak, SheppLogan, Cosine, Hamming, Hann} {
		if w.String() == name {
			return w, nil
		}
	}
	return 0, fmt.Errorf("unknown window %q", name)
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
		return 0.54 + float64(0.46*math.Cos(math.Pi*f))
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
		vb := (float64(v) - float64(g.DetCenterV())) * g.Dv
		row := tab.Row(v)
		for u := 0; u < g.Nu; u++ {
			ub := (float64(u) - float64(g.DetCenterU())) * g.Du
			row[u] = float32(g.SDD / math.Sqrt(float64(g.SDD*g.SDD)+float64(ub*ub)+float64(vb*vb)))
		}
	}
	return tab
}

// Filterer applies the filtering stage to projections of a fixed geometry.
// It precomputes the cosine table and the windowed ramp spectrum once; a
// Filterer is safe for concurrent use by multiple goroutines.
//
// Containment. Rows are filtered in fixed pairs — always (2k, 2k+1) of the same
// projection, an odd last row paired with zeros — so the result does not depend
// on how projections are scheduled: Sweep at any worker count is bit-identical
// to ApplyInto, and ApplyImage to ApplyEncoded of the encoded image. The two
// rows of a pair share one complex transform, so each sees the other's rounding
// error (within the same 1e-6 of the pair's peak as the transform itself), and
// a NaN or ±Inf in one row poisons its pair partner as well as its own row. It
// never reaches another pair.
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
		// buf[k] *= complex(scale·gain, 0), written out as the operator
		// computes it, zero products included, each product rounded on its
		// own; the statement order keeps the operator's instruction order.
		wg := win.gain(f)
		x := buf[k]
		xi0, xr0 := float64(imag(x)*0), float64(real(x)*0)
		c := scale * wg
		buf[k] = complex(float64(real(x)*c)-xi0, xr0+float64(imag(x)*c))
	}
	return buf, nil
}

// ApplyEncoded filters one staged projection E_i straight from its encoded
// bytes (the volume.ImageToBytes format) into block, the Nu×Nv transposed
// layout Alg. 4 line 3 back-projects (V fast: block[u·Nv+v]) — Alg. 1,
// Ẽ = E·F_cos and each row convolved with F_ramp, without decoding an image:
// each row pair is cosine-weighted from the payload bytes, transformed, and
// every kernels.LinePairs filtered pairs are stored into the block a whole
// column run at a time. The header is checked as volume.ImageFromBytesInto
// checks it, and block must hold Nu·Nv values; nothing is written when an
// error is returned. Steady state performs zero heap allocations.
func (f *Filterer) ApplyEncoded(blob []byte, block []float32) error {
	payload, err := volume.ImagePayload(blob, f.g.Nu, f.g.Nv)
	if err != nil {
		return err
	}
	return f.applyPayload(payload, block)
}

// ApplyImage is ApplyEncoded of volume.ImageToBytes(e), bit for bit: e is
// encoded into pooled payload bytes and goes through the same end. e must
// match the geometry and block hold Nu·Nv values; nothing is written when
// an error is returned. Steady state performs zero heap allocations.
func (f *Filterer) ApplyImage(e *volume.Image, block []float32) error {
	if err := f.checkImage("projection", e); err != nil {
		return err
	}
	payload := payloadPool.Acquire(4 * len(e.Data))
	defer payload.Release()
	volume.Float32sToBytesInto(payload.Data, e.Data)
	return f.applyPayload(payload.Data, block)
}

func (f *Filterer) checkImage(what string, e *volume.Image) error {
	if e.W != f.g.Nu || e.H != f.g.Nv {
		return fmt.Errorf("filter: %s %dx%d does not match geometry %dx%d", what, e.W, e.H, f.g.Nu, f.g.Nv)
	}
	return nil
}

// applyPayload is the filter's one end: the checked payload of an Nu×Nv
// projection into block, which must hold its Nu·Nv transposed values.
func (f *Filterer) applyPayload(payload []byte, block []float32) error {
	nu, nv := f.g.Nu, f.g.Nv
	if len(block) != nu*nv {
		return fmt.Errorf("filter: transposed block of %d values for a %dx%d projection", len(block), nu, nv)
	}
	row := 4 * nu // payload bytes per detector row
	stash := pairPool.Acquire(kernels.LinePairs * f.l)
	for v0 := 0; v0 < nv; v0 += 2 * kernels.LinePairs {
		rows := min(2*kernels.LinePairs, nv-v0)
		for p := 0; 2*p < rows; p++ {
			v := v0 + 2*p
			src1, cos1 := f.zeroLE, f.zero
			if v+1 < nv {
				src1, cos1 = payload[(v+1)*row:(v+2)*row], f.cosTab.Row(v+1)
			}
			next := payload[min((v+2)*row, len(payload)):min((v+4)*row, len(payload))]
			kernels.ConvolvePairLE(stash.Data[p*f.l:(p+1)*f.l], payload[v*row:(v+1)*row], f.cosTab.Row(v), src1, cos1,
				f.fwd, f.gain, f.inv, next)
		}
		kernels.TransposeConvolved(block[v0:], nv, stash.Data, f.l, nu, rows, f.inv)
	}
	stash.Release()
	return nil
}

// ApplyInto filters e into q in the detector layout, both matching the
// geometry: ApplyImage into a pooled block, then the block transposed into
// q, which may be e itself. Only the benchmark's layer probes need a
// filtered image; ApplyInto goes with them (ROADMAP item 1(c)). Steady state
// performs zero heap allocations.
func (f *Filterer) ApplyInto(e, q *volume.Image) error {
	if err := f.checkImage("output", q); err != nil {
		return err
	}
	blk := engine.Blocks.Acquire(f.g.Nu * f.g.Nv)
	defer blk.Release()
	if err := f.ApplyImage(e, blk.Data); err != nil {
		return err
	}
	t := volume.Image{W: f.g.Nv, H: f.g.Nu, Data: blk.Data}
	t.TransposeInto(q)
	return nil
}

// Sweep is ApplyInto over every projection of ins into the matching entry
// of outs (outs[i] may be ins[i]), one engine.ParallelRange over the
// projections; workers 0 means GOMAXPROCS, and the result does not depend
// on it. Like ApplyInto it serves only the benchmark's layer probes and goes
// with them (ROADMAP item 1(c)). Dimensions are validated up front, so no
// ApplyInto fails; nothing is written when an error is returned. Steady
// state allocates nothing per projection: one closure per sweep, retained
// by the scheduler's pooled job descriptor.
func (f *Filterer) Sweep(ins, outs []*volume.Image, workers int) error {
	if len(ins) != len(outs) {
		return fmt.Errorf("filter: sweep over %d inputs with %d outputs", len(ins), len(outs))
	}
	for n := range ins {
		err := f.checkImage("projection", ins[n])
		if err == nil {
			err = f.checkImage("output", outs[n])
		}
		if err != nil {
			return fmt.Errorf("%w (entry %d)", err, n)
		}
	}
	engine.ParallelRange(len(ins), workers, func(lo, hi int) {
		for n := lo; n < hi; n++ {
			_ = f.ApplyInto(ins[n], outs[n]) // cannot fail: validated above
		}
	})
	return nil
}
