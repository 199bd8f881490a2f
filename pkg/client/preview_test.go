package client

import (
	"testing"

	"ifdk/internal/service"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// progSpec is a small progressive job: NX 16 decimates at factor 2 into an
// 8³ coarse preview.
func progSpec(quality string) api.Spec {
	return api.Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2, Quality: quality}
}

// The progressive stream reassembles both tiers: the coarse preview first
// (never interleaved after a full-resolution part), then the full volume,
// and the hooks see each tier's slices exactly once.
func TestStreamProgressiveBothTiers(t *testing.T) {
	_, ts := newService(t, service.Options{Workers: 2})
	c := New(ts.URL)
	ctx := testCtx(t)

	v, err := c.Submit(ctx, progSpec(api.QualityProgressive))
	if err != nil {
		t.Fatal(err)
	}
	var prevHooks, fullHooks int
	var previewAfterFull bool
	res, err := c.StreamProgressive(ctx, v.ID, StreamHooks{
		OnPreview: func(z, total, factor int) {
			prevHooks++
			if fullHooks > 0 {
				previewAfterFull = true
			}
			if factor != 2 || total != 8 {
				t.Errorf("OnPreview(z=%d) factor=%d total=%d, want 2/8", z, factor, total)
			}
		},
		OnSlice: func(z, total int) {
			fullHooks++
			if total != 16 {
				t.Errorf("OnSlice(z=%d) total=%d, want 16", z, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.State != api.StateDone {
		t.Fatalf("job ended %s: %s", res.Final.State, res.Final.Error)
	}
	if previewAfterFull {
		t.Fatal("a preview part arrived after a full-resolution part")
	}
	if res.PreviewFactor != 2 || res.PreviewSlices != 8 || prevHooks != 8 {
		t.Fatalf("preview tier: factor %d, %d slices, %d hooks; want 2/8/8", res.PreviewFactor, res.PreviewSlices, prevHooks)
	}
	if res.Preview == nil || res.Preview.Nz != 8 || res.Preview.Nx != 8 {
		t.Fatalf("preview volume = %+v, want 8x8x8", res.Preview)
	}
	if res.Slices != 16 || fullHooks != 16 || res.Volume == nil || res.Volume.Nz != 16 {
		t.Fatalf("full tier: %d slices, %d hooks, vol %+v", res.Slices, fullHooks, res.Volume)
	}
}

// A preview-quality job's coarse volume IS its result: the plain stream
// carries it as ordinary untagged parts, bit-identical to the tier a
// progressive job of the same scan leads its stream with.
func TestPreviewQualityStream(t *testing.T) {
	_, ts := newService(t, service.Options{Workers: 1})
	c := New(ts.URL)
	ctx := testCtx(t)

	v, err := c.Submit(ctx, progSpec(api.QualityPreview))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.StreamProgressive(ctx, v.ID, StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Preview != nil || res.PreviewSlices != 0 {
		t.Fatalf("preview-quality stream tagged parts as preview tier: %+v", res)
	}
	if res.Slices != 8 || res.Volume == nil || res.Volume.Nz != 8 {
		t.Fatalf("preview-quality result = %d slices, vol %+v; want the 8³ coarse volume", res.Slices, res.Volume)
	}
	pv, err := c.Submit(ctx, progSpec(api.QualityProgressive))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := c.StreamProgressive(ctx, pv.ID, StreamHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Preview == nil || prog.PreviewFactor != 2 {
		t.Fatalf("progressive stream: preview tier %+v, factor %d; want factor 2", prog.Preview, prog.PreviewFactor)
	}
	if d, err := volume.MaxAbsDiff(prog.Preview, res.Volume); err != nil || d != 0 {
		t.Fatalf("progressive tier vs preview-quality result: diff %g, err %v; want 0, nil", d, err)
	}
}
