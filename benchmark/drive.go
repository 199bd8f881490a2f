package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"ifdk/pkg/api"
	"ifdk/pkg/client"
	"ifdk/pkg/volume"
)

// maxRelRMSE is the paper's equivalence bound between the distributed
// pipeline and the serial FDK reference.
const maxRelRMSE = 1e-5

// sample is what one job yielded on the client clock. Durations are seconds
// from the moment Submit was called; a duration that does not apply (first
// preview of a full-quality job) stays 0.
type sample struct {
	item   item
	id     string
	hit    bool // served from the result cache
	traced bool

	submitRTT float64 // Submit call, including SDK retries
	job       float64 // submit → terminal event (the submit reply itself on a cache hit)
	ttfp      float64 // submit → first preview part decoded
	ttfs      float64 // submit → first full-resolution slice part decoded
	ttfv      float64 // submit → terminal stream part, volume reassembled
	view      api.View
	sliceGets []float64 // GET /slice/{z} round trips

	volHash uint64   // of the streamed volume's voxel bits
	ops     int      // operations attempted: the job and each slice read
	errs    []string // operations that failed or returned a wrong result
}

func (s *sample) failf(format string, args ...any) {
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
}

// driver drives jobs against one stack the way a user of the SDK would:
// Submit, then the event watch and the slice stream side by side until both
// end, then (fleet_mixed) a few slice reads.
type driver struct {
	st *stack
	c  *client.Client
}

// runJob drives one job to its delivered volume and checks everything the
// service promises about it. tr is nil for an untraced job. original is the
// sample this item repeats (nil for a cold job).
func (d *driver) runJob(ctx context.Context, it item, original *sample, tr *tracer) sample {
	smp := sample{item: it, traced: tr != nil, ops: 1}
	root, endRoot := tr.start("job", 0, "")
	defer endRoot()
	since := func(t time.Time) float64 { return time.Since(t).Seconds() }

	t0 := time.Now()
	_, end := tr.start("client.submit", root, "")
	v, err := d.c.Submit(ctx, it.spec)
	end()
	if err != nil {
		smp.failf("submit %+v: %v", it.spec, err)
		return smp
	}
	smp.submitRTT = since(t0)
	smp.id, smp.hit = v.ID, v.CacheHit
	tr.setJob(root, v.ID)

	var (
		watched  = make(chan struct{})
		state    api.State
		watchErr error
		terminal float64
	)
	go func() {
		defer close(watched)
		_, end := tr.start("client.watch", root, "")
		defer end()
		state, watchErr = d.c.Watch(ctx, v.ID, func(e api.Event) error {
			if e.Type.Terminal() {
				terminal = since(t0)
			}
			return nil
		})
	}()
	previewAfterFull := false
	_, end = tr.start("client.stream", root, "")
	res, streamErr := d.c.StreamProgressive(ctx, v.ID, client.StreamHooks{
		OnSlice: func(int, int) {
			if smp.ttfs == 0 {
				smp.ttfs = since(t0)
			}
		},
		OnPreview: func(int, int, int) {
			if smp.ttfp == 0 {
				smp.ttfp = since(t0)
			}
			previewAfterFull = previewAfterFull || smp.ttfs > 0
		},
	})
	end()
	smp.ttfv = since(t0)
	<-watched
	smp.job = terminal
	if smp.hit {
		smp.job = smp.submitRTT // the reply already carried the terminal view
	}

	switch {
	case watchErr != nil:
		smp.failf("job %s: watch: %v", v.ID, watchErr)
	case streamErr != nil:
		smp.failf("job %s: stream: %v", v.ID, streamErr)
	case state != api.StateDone || res.Final.State != api.StateDone:
		smp.failf("job %s ended %s/%s: %s", v.ID, state, res.Final.State, res.Final.Error)
	}
	if len(smp.errs) > 0 {
		return smp
	}
	smp.view = res.Final
	d.checkDelivery(&smp, res, previewAfterFull, original)
	d.readSlices(ctx, &smp, root, tr)
	return smp
}

// checkDelivery holds the stream to its contract. The SDK has already
// refused duplicated, out-of-range and missing slices; what is left is that
// previews lead, that the streamed volume is the job's result bit for bit,
// that a verified job met the paper's bound, and that a repeat returned the
// very volume its original did.
func (d *driver) checkDelivery(smp *sample, res *client.StreamResult, previewAfterFull bool, original *sample) {
	id, spec := smp.id, smp.item.spec
	if previewAfterFull {
		smp.failf("job %s: a preview part arrived after a full-resolution part", id)
	}
	if spec.Quality == api.QualityProgressive && !smp.hit &&
		(res.Preview == nil || res.PreviewSlices != res.Preview.Nz) {
		smp.failf("job %s: progressive job streamed an incomplete preview tier", id)
	}
	if spec.Verify && (!res.Final.Verified || res.Final.RelRMSE > maxRelRMSE) {
		smp.failf("job %s: verified=%v rel_rmse=%g, want ≤ %g", id, res.Final.Verified, res.Final.RelRMSE, maxRelRMSE)
	}
	want, err := d.st.owner(id).m.Volume(id)
	if err != nil {
		smp.failf("job %s: result volume: %v", id, err)
		return
	}
	same, hash := sameBits(res.Volume, want)
	if !same {
		smp.failf("job %s: streamed volume differs from the job's result", id)
	}
	smp.volHash = hash
	if original != nil && original.volHash != hash {
		smp.failf("job %s: repeat of %s returned a different volume", id, original.id)
	}
}

// readSlices issues the item's GET /slice/{z} reads. The SDK has no call
// for this route, so these go through net/http directly.
func (d *driver) readSlices(ctx context.Context, smp *sample, root int, tr *tracer) {
	for _, z := range smp.item.slices {
		smp.ops++
		t0 := time.Now()
		_, end := tr.start("http.slice_get", root, "")
		err := getOK(ctx, fmt.Sprintf("%s/v1/jobs/%s/slice/%d", d.c.BaseURL(), smp.id, z))
		end()
		if err != nil {
			smp.failf("job %s: slice %d: %v", smp.id, z, err)
			continue
		}
		smp.sliceGets = append(smp.sliceGets, time.Since(t0).Seconds())
	}
}

func getOK(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	case n == 0:
		return fmt.Errorf("empty body")
	}
	return nil
}

// sameBits reports whether two volumes hold the same voxels bit for bit,
// and returns an FNV-1a hash of a's voxel bits.
func sameBits(a, b *volume.Volume) (bool, uint64) {
	same := a.Nx == b.Nx && a.Ny == b.Ny && a.Nz == b.Nz && a.Layout == b.Layout && len(a.Data) == len(b.Data)
	hash := uint64(14695981039346656037)
	for i, x := range a.Data {
		bits := math.Float32bits(x)
		if same && bits != math.Float32bits(b.Data[i]) {
			same = false
		}
		hash = (hash ^ uint64(bits)) * 1099511628211
	}
	return same, hash
}
