package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// progSpec is the shared scan of these tests: NX=16 defaults to a
// 32×32×32 → 16³ problem, whose preview plan decimates by 2 to a coarse
// 16×16×16 → 8³ problem.
func progSpec(quality string) Spec {
	return Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2, Quality: quality}
}

// The progressive tentpole: a client on /v1/jobs/{id}/stream receives the
// COMPLETE coarse preview tier — every coarse slice, marked with the
// decimation factor — strictly before the first full-resolution part, while
// the job is provably still mid-reconstruction; the refined volume that
// follows is bit-identical to a non-progressive full-resolution job of the
// same spec, and the preview tier is bit-identical to a preview-quality job
// of the same spec.
func TestE2EProgressiveCoarseToFine(t *testing.T) {
	gate := newSliceGate()
	defer gate.open()
	opt := Options{Workers: 2}
	opt.testOnSlice = gate.hook // parks the epilogue at the first full-res slice
	ts, m := startTestServer(t, opt)

	resp, v := postJob(t, ts.URL, progSpec(api.QualityProgressive))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	id := v.ID
	if v.Quality != api.QualityProgressive {
		t.Fatalf("submit view quality = %q, want progressive", v.Quality)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	parts, views := openStream(t, ctx, ts.URL+"/v1/jobs/"+id+"/stream")

	// Phase 1 — with the epilogue parked inside the first slice callback,
	// the whole coarse tier must arrive. 16³ decimated by 2 is 8 slices.
	const coarseNz = 8
	preview := volume.New(coarseNz, coarseNz, coarseNz, volume.IMajor)
	for got := 0; got < coarseNz; {
		select {
		case p, ok := <-parts:
			if !ok {
				t.Fatalf("stream ended after %d preview parts", got)
			}
			if p.factor == 0 {
				t.Fatalf("full-resolution slice %d arrived before the preview tier completed (%d/%d)", p.z, got, coarseNz)
			}
			if p.factor != 2 || p.total != coarseNz {
				t.Fatalf("preview part factor=%d total=%d, want 2 and %d", p.factor, p.total, coarseNz)
			}
			if err := preview.SetSliceZ(p.z, p.img); err != nil {
				t.Fatal(err)
			}
			got++
		case <-ctx.Done():
			t.Fatal("timed out waiting for the preview tier")
		}
	}
	if code, view := getView(t, ts.URL, id); code != http.StatusOK || view.State != StateRunning {
		t.Fatalf("job state with full preview delivered = %s (HTTP %d), want running", view.State, code)
	} else if view.PreviewFactor != 2 {
		t.Fatalf("running view preview_factor = %d, want 2", view.PreviewFactor)
	}
	gate.open()

	// Phase 2 — the refinement: exactly the 16 full-resolution slices, none
	// marked as preview, reassembling to the job's own result.
	full := volume.New(16, 16, 16, volume.IMajor)
	seen := map[int]int{}
	for p := range parts {
		if p.factor != 0 {
			t.Fatalf("preview part (z=%d) after the tier completed", p.z)
		}
		seen[p.z]++
		if err := full.SetSliceZ(p.z, p.img); err != nil {
			t.Fatal(err)
		}
	}
	for z := 0; z < 16; z++ {
		if seen[z] != 1 {
			t.Fatalf("full slice %d streamed %d times, want exactly once", z, seen[z])
		}
	}
	if final, ok := <-views; !ok || final.State != StateDone {
		t.Fatalf("terminal stream part = %+v (ok=%v), want done", final, ok)
	}

	// Refinement is lossless: bit-identical to a plain full-quality job.
	cv, err := m.Submit(progSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, cv.ID, time.Minute)
	want, err := m.Volume(cv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := volume.MaxAbsDiff(want, full); err != nil || d != 0 {
		t.Fatalf("progressive refinement differs from the full-quality job: maxAbsDiff=%g err=%v", d, err)
	}

	// The preview tier is the preview-quality job's exact result (they share
	// the preview cache key, so this submission is also an instant hit).
	pv, err := m.Submit(progSpec(api.QualityPreview))
	if err != nil {
		t.Fatal(err)
	}
	if !pv.CacheHit {
		t.Errorf("preview-quality submit after a progressive run was not a cache hit")
	}
	waitState(t, m, pv.ID, time.Minute)
	pVol, err := m.Volume(pv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := volume.MaxAbsDiff(pVol, preview); err != nil || d != 0 {
		t.Fatalf("streamed preview differs from the preview-quality job: maxAbsDiff=%g err=%v", d, err)
	}
}

// Every preview part of a progressive job reaches a /stream consumer before
// any full-resolution slice exists: with the worker held after the preview
// event, the tier's last part must not wait for the part after it, since
// each part is read by its Content-Length.
func TestStreamPreviewTierBeforeFirstSlice(t *testing.T) {
	t.Run("identity", func(t *testing.T) {
		gate := newSliceGate()
		defer gate.open()
		opt := Options{Workers: 1}
		opt.testOnPreview = gate.hook // holds the pipeline before its first full-resolution round
		ts, _ := startTestServer(t, opt)

		_, v := postJob(t, ts.URL, progSpec(api.QualityProgressive))
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		resp := mustGet(t, ctx, ts.URL+"/v1/jobs/"+v.ID+"/stream", map[string]string{"Accept-Encoding": "identity"})
		defer resp.Body.Close()
		parts := make(chan api.SlicePart, 32)
		go func() {
			defer close(parts)
			for p, err := range api.ReadSlices(resp.Header.Get("Content-Type"), resp.Body) {
				if err != nil {
					return
				}
				parts <- p
			}
		}()
		const coarseNz = 8
		for got := 0; got < coarseNz; got++ {
			select {
			case p, ok := <-parts:
				if !ok || p.Factor != 2 {
					t.Fatalf("stream ended or sent a full-resolution part after %d/%d preview parts", got, coarseNz)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%d/%d preview parts read while the pipeline was held before its first slice", got, coarseNz)
			}
		}
		gate.open()
		full := 0
		var final *View
		for p := range parts {
			switch {
			case p.End != nil:
				final = p.End
			case p.Factor != 0:
				t.Fatalf("preview part z=%d after the tier completed", p.Z)
			default:
				full++
			}
		}
		if final == nil || final.State != StateDone || full != 16 {
			t.Fatalf("stream closed with %d full slices and final view %+v; want 16 and done", full, final)
		}
	})
}

// A preview-quality job is a complete job whose result IS the coarse
// volume: coarse slice count on /stream and /slice, the result's bits on
// /stream, no preview part markers, quality and factor on the view, and
// verification through the independent rebuild path.
func TestPreviewQualityServing(t *testing.T) {
	ts, m := startTestServer(t, Options{Workers: 2})
	spec := progSpec(api.QualityPreview)
	spec.Verify = true
	resp, v := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	fv := waitState(t, m, v.ID, time.Minute)
	if fv.State != StateDone {
		t.Fatalf("preview job finished %s (%s), want done", fv.State, fv.Error)
	}
	if fv.Quality != api.QualityPreview || fv.PreviewFactor != 2 {
		t.Fatalf("view quality=%q factor=%d, want preview/2", fv.Quality, fv.PreviewFactor)
	}
	if !fv.Verified || fv.RelRMSE != 0 {
		t.Fatalf("preview verification: verified=%v relRMSE=%g, want true/0 (deterministic rebuild)", fv.Verified, fv.RelRMSE)
	}
	vol, err := m.Volume(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vol.Nx != 8 || vol.Nz != 8 {
		t.Fatalf("preview result is %dx%dx%d, want the coarse 8³ grid", vol.Nx, vol.Ny, vol.Nz)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	parts, views := openStream(t, ctx, ts.URL+"/v1/jobs/"+v.ID+"/stream")
	count := 0
	for p := range parts {
		if p.factor != 0 {
			t.Fatalf("preview-quality stream carried a preview-marked part (z=%d)", p.z)
		}
		if p.total != 8 {
			t.Fatalf("part total = %d, want the coarse slice count 8", p.total)
		}
		if !bytes.Equal(volume.AppendImage(nil, p.img), volume.AppendImage(nil, planeZ(vol, p.z))) {
			t.Fatalf("streamed slice %d differs from the job's coarse result", p.z)
		}
		count++
	}
	if count != 8 {
		t.Fatalf("streamed %d slices, want 8", count)
	}
	if final, ok := <-views; !ok || final.State != StateDone {
		t.Fatalf("terminal stream part = %+v (ok=%v)", final, ok)
	}

	// /slice honours the coarse range: 7 exists, 12 is out of range.
	if r, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/slice/7"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("coarse slice 7: %v HTTP %d", err, r.StatusCode)
	} else {
		r.Body.Close()
	}
	r, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/slice/12")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeAPIError(t, r); r.StatusCode != http.StatusBadRequest || e.Code != api.CodeBadRequest {
		t.Fatalf("out-of-range coarse slice: HTTP %d code %s", r.StatusCode, e.Code)
	}
}

// Preview and full-resolution results of one spec must never alias in the
// result cache: a full submit after a preview run reconstructs, and vice
// versa, while same-quality resubmits hit.
func TestPreviewCacheNeverAliases(t *testing.T) {
	ts, m := startTestServer(t, Options{Workers: 1})

	_, pv := postJob(t, ts.URL, progSpec(api.QualityPreview))
	waitState(t, m, pv.ID, time.Minute)

	// Same scan at full quality: a cold miss (202), never the coarse entry.
	resp, fv := postJob(t, ts.URL, progSpec(""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("full submit after preview: HTTP %d, want 202 (no aliasing)", resp.StatusCode)
	}
	waitState(t, m, fv.ID, time.Minute)

	// Same-quality resubmits are instant hits on their own keys.
	if resp, v := postJob(t, ts.URL, progSpec(api.QualityPreview)); resp.StatusCode != http.StatusOK || !v.CacheHit {
		t.Fatalf("preview resubmit: HTTP %d hit=%v, want 200 hit", resp.StatusCode, v.CacheHit)
	}
	if resp, v := postJob(t, ts.URL, progSpec("")); resp.StatusCode != http.StatusOK || !v.CacheHit {
		t.Fatalf("full resubmit: HTTP %d hit=%v, want 200 hit", resp.StatusCode, v.CacheHit)
	}

	// The two results are different volumes under different keys.
	pVol, err := m.Volume(pv.ID)
	if err != nil {
		t.Fatal(err)
	}
	fVol, err := m.Volume(fv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pVol.Nz == fVol.Nz {
		t.Fatalf("preview and full results have the same grid (%d): aliased?", pVol.Nz)
	}
	pk, err := SpecKey(progSpec(api.QualityPreview))
	if err != nil {
		t.Fatal(err)
	}
	fk, err := SpecKey(progSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	if pk == fk {
		t.Fatalf("SpecKey ignores quality: %s", pk)
	}
	if gk, _ := SpecKey(progSpec(api.QualityProgressive)); gk != fk {
		t.Fatalf("progressive SpecKey %s != full key %s (must share the full-res shard)", gk, fk)
	}
}

// /stream attached to a settled job is the one read path of its preview
// tier: a done progressive job leads with every coarse part, marked with
// the job's own factor and bit-identical to the tier it built (resolved
// from the result cache), then its 16 full slices; a full-quality job's
// stream carries no preview part at all.
func TestStreamTierOfSettledJob(t *testing.T) {
	ts, m := startTestServer(t, Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, tc := range []struct {
		quality       string
		preview, full int
	}{
		{api.QualityProgressive, 8, 16},
		{api.QualityFull, 0, 16},
	} {
		_, v := postJob(t, ts.URL, progSpec(tc.quality))
		if fv := waitState(t, m, v.ID, time.Minute); fv.State != StateDone {
			t.Fatalf("%s job finished %s (%s), want done", tc.quality, fv.State, fv.Error)
		}
		j, _ := m.job(v.ID)
		built := m.previewFor(j)
		parts, views := openStream(t, ctx, ts.URL+"/v1/jobs/"+v.ID+"/stream")
		preview, full := 0, 0
		for p := range parts {
			if p.factor == 0 {
				full++
				continue
			}
			if full > 0 || built == nil {
				t.Fatalf("%s: preview part z=%d after %d full-resolution parts (tier built: %v)", tc.quality, p.z, full, built != nil)
			}
			if p.factor != j.plan.Factor || p.total != built.Nz {
				t.Fatalf("%s: preview part factor=%d total=%d, want the job's %d and %d", tc.quality, p.factor, p.total, j.plan.Factor, built.Nz)
			}
			if !bytes.Equal(volume.AppendImage(nil, p.img), volume.AppendImage(nil, planeZ(built, p.z))) {
				t.Fatalf("%s: streamed preview slice %d differs from the tier the job built", tc.quality, p.z)
			}
			preview++
		}
		if preview != tc.preview || full != tc.full {
			t.Fatalf("%s: %d preview and %d full parts, want %d and %d", tc.quality, preview, full, tc.preview, tc.full)
		}
		if final, ok := <-views; !ok || final.State != StateDone {
			t.Fatalf("%s: terminal stream part = %+v (ok=%v), want done", tc.quality, final, ok)
		}
	}
}

// An unknown quality is a spec validation failure: the invalid_spec
// envelope, named field, HTTP 400.
func TestQualityValidation(t *testing.T) {
	ts, _ := startTestServer(t, Options{Workers: 1})
	body, _ := json.Marshal(progSpec("4k"))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	e := decodeAPIError(t, resp)
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeInvalidSpec {
		t.Fatalf("bad quality: HTTP %d code %s, want 400 invalid_spec", resp.StatusCode, e.Code)
	}
}

// Quality survives the write-ahead journal: a daemon crashed mid-run
// recovers preview and progressive jobs with their tier intact and
// re-executes them to bit-identical results.
func TestCrashRestartPreservesQuality(t *testing.T) {
	dir := t.TempDir()
	specs := []Spec{
		progSpec(api.QualityProgressive),
		progSpec(api.QualityPreview),
	}
	m1, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir, PFS: pfsThrottled()})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, spec := range specs {
		v, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	waitRunning(t, m1, ids[0])
	m1.Crash()

	m2, err := OpenManager(Options{Workers: 2, NodeID: "b0", JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m2.Shutdown(ctx)
	}()
	for i, id := range ids {
		v, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %d (%s) lost across the crash", i, id)
		}
		if v.Quality != specs[i].Quality {
			t.Fatalf("job %s quality %q after replay, want %q", id, v.Quality, specs[i].Quality)
		}
	}
	for _, id := range ids {
		if v := waitState(t, m2, id, 2*time.Minute); v.State != StateDone {
			t.Fatalf("recovered job %s finished %s (%s), want done", id, v.State, v.Error)
		}
	}

	control := NewManager(Options{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = control.Shutdown(ctx)
	}()
	for i, spec := range specs {
		cv, err := control.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, control, cv.ID, 2*time.Minute)
		want, err := control.Volume(cv.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m2.Volume(ids[i])
		if err != nil {
			t.Fatalf("recovered job %s: %v", ids[i], err)
		}
		if d, err := volume.MaxAbsDiff(want, got); err != nil || d != 0 {
			t.Fatalf("quality job %d not bit-exact across crash/restart: maxAbsDiff=%g err=%v", i, d, err)
		}
	}
}
