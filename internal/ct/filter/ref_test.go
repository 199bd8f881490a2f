package filter

import (
	"fmt"

	"ifdk/internal/fft"
	"ifdk/pkg/volume"
)

// ApplyRef filters one projection through the original complex128 path, one
// row per transform: the high-precision reference the parity tests pin the
// row-pair hot path to. Tests are its only callers, so it lives here and
// rebuilds the spectrum New narrowed to a float32 gain.
func (f *Filterer) ApplyRef(e *volume.Image) (*volume.Image, error) {
	if e.W != f.g.Nu || e.H != f.g.Nv {
		return nil, fmt.Errorf("filter: projection %dx%d does not match geometry %dx%d",
			e.W, e.H, f.g.Nu, f.g.Nv)
	}
	plan, err := fft.NewPlan(f.l)
	if err != nil {
		return nil, err
	}
	spec, err := rampSpectrum(f.g, f.win, f.l)
	if err != nil {
		return nil, err
	}
	q := volume.NewImage(e.W, e.H)
	buf := make([]complex128, f.l)
	for v := 0; v < e.H; v++ {
		in, cos, out := e.Row(v), f.cosTab.Row(v), q.Row(v)
		clear(buf)
		for u := range in {
			buf[u] = complex(float64(in[u])*float64(cos[u]), 0) // point-wise ·F_cos
		}
		plan.Forward(buf)
		for k := range buf {
			buf[k] *= spec[k]
		}
		plan.Inverse(buf)
		for u := range out {
			out[u] = float32(real(buf[u]))
		}
	}
	return q, nil
}
