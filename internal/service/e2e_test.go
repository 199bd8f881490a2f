package service

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/projector"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// mustGet opens a streaming GET and fails the test unless it answers 200.
func mustGet(t *testing.T, ctx context.Context, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return resp
}

// openSSE attaches to a job's /events stream and decodes it into a channel,
// closed when the server ends the stream (terminal event) or ctx does.
func openSSE(t *testing.T, ctx context.Context, url string, lastEventID int64) <-chan Event {
	t.Helper()
	resp := mustGet(t, ctx, url, map[string]string{"Last-Event-ID": strconv.FormatInt(lastEventID, 10)})
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: Content-Type %q", ct)
	}
	ch := make(chan Event, 8192)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		for e, err := range api.ReadEvents(resp.Body) {
			if err != nil {
				return // teardown mid-frame
			}
			ch <- e
		}
	}()
	return ch
}

// slicePart is one decoded part of a /stream response; factor is 0 on
// full-resolution parts.
type slicePart struct {
	z, total, factor int
	img              *volume.Image
}

// decodeSlice decodes a part's payload, the PFS image bytes as they are.
func decodeSlice(p api.SlicePart) (slicePart, error) {
	img, err := volume.ImageFromBytes(p.Payload)
	return slicePart{z: p.Z, total: p.Total, factor: p.Factor, img: img}, err
}

// openStream attaches to a job's /stream multipart response. Slice parts
// arrive on the first channel, in arrival order, as they are flushed; the
// terminal JSON view arrives on the second. Both close when the response
// body ends.
func openStream(t *testing.T, ctx context.Context, url string) (<-chan slicePart, <-chan View) {
	t.Helper()
	resp := mustGet(t, ctx, url, nil)
	parts := make(chan slicePart, 1024)
	views := make(chan View, 1)
	go func() {
		defer close(parts)
		defer close(views)
		defer resp.Body.Close()
		for p, err := range api.ReadSlices(resp.Header.Get("Content-Type"), resp.Body) {
			if err != nil {
				return // teardown mid-part
			}
			if p.End != nil {
				views <- *p.End
				continue
			}
			if part, err := decodeSlice(p); err == nil {
				parts <- part
			}
		}
	}()
	return parts, views
}

// sliceGate blocks the reconstruction epilogue inside its first slice
// callback until released, so tests can observe the service in the state
// "slice durably published, job provably still running". core serialises
// the callbacks, so parking one parks them all.
type sliceGate struct {
	release chan struct{}
	once    sync.Once
}

func newSliceGate() *sliceGate { return &sliceGate{release: make(chan struct{})} }

func (g *sliceGate) hook(string, int) { <-g.release }

func (g *sliceGate) open() { g.once.Do(func() { close(g.release) }) }

// The golden end-to-end path over real HTTP: a client consuming /events and
// /stream concurrently receives its first slice and progress events while
// the job is still running, and the streamed volume reassembles to exactly
// the job's result — which matches a direct serial fdk.Reconstruct of the
// same scan voxel-for-voxel within 1e-5.
func TestE2EStreamingGolden(t *testing.T) {
	// openStream's parts are read by their Content-Length, so the first
	// slice arrives while the epilogue is parked in its first callback.
	gate := newSliceGate()
	defer gate.open()
	opt := Options{Workers: 2}
	opt.testOnSlice = gate.hook
	ts, m := startTestServer(t, opt)

	spec := Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2}
	resp, v := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	id := v.ID

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	events := openSSE(t, ctx, ts.URL+"/v1/jobs/"+id+"/events", 0)
	parts, views := openStream(t, ctx, ts.URL+"/v1/jobs/"+id+"/stream")

	// Phase 1 — the epilogue is parked inside the first slice callback:
	// the first slice event and the first streamed slice part must reach
	// this client while the job is verifiably still running.
	var received []Event
	firstSlice := -1
	for firstSlice < 0 {
		select {
		case e, ok := <-events:
			if !ok {
				t.Fatalf("events stream ended before the first slice (got %+v)", received)
			}
			received = append(received, e)
			if e.Type == EventSlice {
				firstSlice = len(received) - 1
			}
		case <-ctx.Done():
			t.Fatalf("timed out waiting for the first slice event (got %+v)", received)
		}
	}
	rounds := 0
	for _, e := range received[:firstSlice] {
		if e.Type == EventRound {
			rounds++
		}
	}
	if rounds < 1 {
		t.Errorf("no progress (round) events before the first slice: %+v", received)
	}
	var firstPart slicePart
	select {
	case firstPart = <-parts:
	case <-ctx.Done():
		t.Fatal("timed out waiting for the first streamed slice part")
	}
	if firstPart.img == nil || firstPart.img.W != 16 || firstPart.img.H != 16 {
		t.Fatalf("first streamed slice malformed: %+v", firstPart)
	}
	if code, view := getView(t, ts.URL, id); code != http.StatusOK || view.State != StateRunning {
		t.Fatalf("job state with first slice delivered = %s (HTTP %d), want running", view.State, code)
	}
	gate.open()

	// Phase 2 — drain both streams to their terminal markers.
	for e := range events {
		received = append(received, e)
	}
	last := received[len(received)-1]
	if last.Type != EventDone || last.State != StateDone {
		t.Fatalf("final event = %+v, want done", last)
	}
	got := volume.New(16, 16, 16, volume.IMajor)
	seen := map[int]int{firstPart.z: 1}
	if err := got.SetSliceZ(firstPart.z, firstPart.img); err != nil {
		t.Fatal(err)
	}
	for p := range parts {
		seen[p.z]++
		if err := got.SetSliceZ(p.z, p.img); err != nil {
			t.Fatal(err)
		}
	}
	for z := 0; z < 16; z++ {
		if seen[z] != 1 {
			t.Fatalf("slice %d streamed %d times, want exactly once", z, seen[z])
		}
	}
	final, ok := <-views
	if !ok || final.State != StateDone {
		t.Fatalf("terminal stream part = %+v (ok=%v), want done view", final, ok)
	}

	// The streamed volume is bit-identical to the job's own result…
	res, err := m.Volume(id)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := volume.MaxAbsDiff(res, got); err != nil || d != 0 {
		t.Fatalf("streamed volume differs from the job result: maxAbsDiff=%g err=%v", d, err)
	}
	// …and matches a direct serial reconstruction of the same scan
	// voxel-for-voxel within 1e-5.
	rs, err := resolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	proj := projector.AnalyticAll(rs.ph, rs.cfg.Geometry, 0)
	ref, err := fdk.Reconstruct(rs.cfg.Geometry, proj, fdk.Config{Window: rs.cfg.Window})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := volume.MaxAbsDiff(ref, got); err != nil || d > 1e-5 {
		t.Fatalf("streamed volume vs direct fdk.Reconstruct: maxAbsDiff=%g err=%v, want <= 1e-5", d, err)
	}

	// SSE resumption: replaying with Last-Event-ID from mid-stream yields
	// only later events and still ends in the same terminal event.
	midSeq := received[firstSlice].Seq
	resumed := openSSE(t, ctx, ts.URL+"/v1/jobs/"+id+"/events", midSeq)
	var tail []Event
	for e := range resumed {
		if e.Seq <= midSeq {
			t.Fatalf("resumed stream replayed seq %d <= Last-Event-ID %d", e.Seq, midSeq)
		}
		tail = append(tail, e)
	}
	if len(tail) == 0 || tail[len(tail)-1].Type != EventDone {
		t.Fatalf("resumed stream tail = %+v, want to end done", tail)
	}
}

// A subscriber that attaches only after the job completed still gets the
// whole thing: the full slice set (served from the result volume) plus the
// terminal view, and a coalesced SSE replay ending in done.
func TestE2ELateSubscribeReplay(t *testing.T) {
	ts, m := startTestServer(t, Options{Workers: 1})
	_, v := postJob(t, ts.URL, Spec{Phantom: "sphere", NX: 16, R: 2, C: 2})
	waitState(t, m, v.ID, time.Minute)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	parts, views := openStream(t, ctx, ts.URL+"/v1/jobs/"+v.ID+"/stream")
	count := 0
	for range parts {
		count++
	}
	if count != 16 {
		t.Fatalf("late subscribe streamed %d slices, want 16", count)
	}
	if final := <-views; final.State != StateDone {
		t.Fatalf("late subscribe terminal view = %+v, want done", final)
	}

	var replay []Event
	for e := range openSSE(t, ctx, ts.URL+"/v1/jobs/"+v.ID+"/events", 0) {
		replay = append(replay, e)
	}
	if n := len(replay); n == 0 || replay[n-1].Type != EventDone {
		t.Fatalf("late SSE replay = %+v, want a history ending done", replay)
	}
}
