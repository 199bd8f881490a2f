package service

import (
	"net/http"
	"strconv"
	"strings"

	"ifdk/internal/compress"
	"ifdk/internal/hpc/pfs"
	"ifdk/internal/service/progressive"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// events serves GET /v1/jobs/{id}/events: the job's lifecycle as
// Server-Sent Events. Each event's id is its per-job sequence number, so a
// reconnecting client resumes with the standard Last-Event-ID header (or an
// ?after= query parameter) and replays only what it has not seen. The
// stream replays retained history first — subscribing to a finished job
// yields its full (coalesced) lifecycle — then follows the live run and
// ends after the terminal event.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.m.Get(id); !ok {
		writeErr(w, api.CodeNotFound, "no such job %q", id)
		return
	}
	after, err := api.ResumeCursor(r)
	if err != nil {
		writeErr(w, api.CodeBadRequest, "%v", err)
		return
	}
	sub, err := s.m.subscribe(id, after)
	if err != nil {
		writeErr(w, api.CodeNotFound, "no such job %q", id)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// Flush the headers now: a client resuming at the tip of the stream may
	// otherwise sit on an unanswered request until the next event happens.
	if err := rc.Flush(); err != nil {
		return
	}
	for {
		batch, ok := sub.Next(r.Context())
		for _, e := range batch {
			if err := api.WriteEvent(w, e); err != nil {
				return // client went away
			}
		}
		if err := rc.Flush(); err != nil {
			return
		}
		if !ok {
			return
		}
	}
}

// acceptsGzip reports whether the request advertises gzip content coding.
// A quality value of 0 is an explicit refusal (RFC 9110 §12.4.2), so
// "gzip;q=0" disables compression even though it names the coding.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(coding) != "gzip" && strings.TrimSpace(coding) != "*" {
			continue
		}
		q := strings.ReplaceAll(strings.TrimSpace(params), " ", "")
		if strings.HasPrefix(q, "q=") {
			if v, err := strconv.ParseFloat(strings.TrimPrefix(q, "q="), 64); err == nil && v <= 0 {
				continue
			}
		}
		return true
	}
	return false
}

// preview serves GET /v1/jobs/{id}/preview: the job's coarse preview
// volume as one multipart/mixed response, one part per coarse z-slice in
// the PFS image format, each marked with HeaderPreviewFactor. The preview
// is a point-in-time artifact, not a stream — it either exists in full or
// not at all — so a job whose preview phase has not completed answers
// not_yet_written (retryable); a full-quality job has no preview tier and
// answers bad_request; a terminal job without one (failed, cancelled, or
// done before a restart that lost it) answers terminal, matching /stream.
func (s *Server) preview(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.m.job(id)
	if !ok {
		writeErr(w, api.CodeNotFound, "no such job %q", id)
		return
	}
	if !j.qual.WantsPreview() {
		writeErr(w, api.CodeBadRequest, "job %s has quality %s: no preview tier", id, j.qual)
		return
	}
	st := j.State() // first, as in slice: a terminal job's preview is final
	e := s.m.previewFor(j)
	if e == nil || e.Volume == nil {
		if st.Terminal() {
			writeErr(w, api.CodeTerminal, "job %s is %s: no preview", id, st)
			return
		}
		writeErr(w, api.CodeNotYetWritten, "preview of job %s not built yet (state %s)", id, j.State())
		return
	}
	sw, gz := api.NewSliceWriter(w), acceptsGzip(r)
	defer sw.Close()
	w.Header().Set("Content-Type", sw.ContentType())
	w.Header().Set(api.HeaderPreviewFactor, strconv.Itoa(j.plan.Factor))
	w.WriteHeader(http.StatusOK)
	for z := 0; z < e.Volume.Nz; z++ {
		if sendSlice(sw, gz, z, e.Volume.Nz, j.plan.Factor, volume.ImageToBytes(e.Volume.SliceZ(z))) != nil {
			return
		}
	}
}

// sendSlice frames slice z of total through the shared codec (factor > 0
// marks a preview-tier part), gzip-encoding the payload when the request
// negotiated it.
func sendSlice(sw api.SliceWriter, gz bool, z, total, factor int, blob []byte) error {
	p := api.SlicePart{Z: z, Total: total, Factor: factor, Payload: blob}
	if gz {
		var err error
		if p.Payload, err = compress.Gzip(blob); err != nil {
			return err
		}
		p.Encoding = api.EncodingGzip
	}
	return sw.WriteSlice(p)
}

// stream serves GET /v1/jobs/{id}/stream: the job's output slices as a
// chunked multipart/mixed body, each part one z-slice in the PFS image
// format (little-endian W,H header + float32 payload), delivered as its row
// group finishes — while the job is still running. Attaching late replays
// the already-written slices first (from the PFS mid-run, or from the
// cached volume once done), then follows the live epilogue. The final part
// is the job's terminal JSON view.
//
// Progressive jobs prepend the coarse tier: as soon as the preview volume
// exists (EventPreview, or immediately on attach once built), its slices
// are emitted as parts marked with HeaderPreviewFactor, indexed on the
// coarse grid — always before the first full-resolution part, so a client
// has a renderable volume while the full pipeline is still in its first
// rounds. Preview-quality jobs are served like ordinary jobs whose result
// happens to be the coarse volume: plain parts, coarse slice total, no
// preview header.
//
// When the request advertises Accept-Encoding: gzip, each slice part is
// DEFLATE-compressed independently (Content-Encoding: gzip on the part, not
// the response) — filtered CT slices are smooth and compress well, and
// independent parts keep late attach and mid-stream resume trivial.
func (s *Server) stream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.m.job(id)
	if !ok {
		writeErr(w, api.CodeNotFound, "no such job %q", id)
		return
	}
	// Subscribe before inspecting state so no slice event can fall between
	// the snapshot and the live tail.
	sub, err := s.m.subscribe(id, 0)
	if err != nil {
		writeErr(w, api.CodeNotFound, "no such job %q", id)
		return
	}
	defer sub.Close()

	nz := j.resultNz()
	// A terminal job's slices come only from its result; without one the
	// stream would stay empty for good.
	if st := j.State(); st.Terminal() {
		if e := s.m.resultFor(j); e == nil || e.Volume == nil {
			writeErr(w, api.CodeTerminal, "job %s is %s: no slice stream", id, st)
			return
		}
	}
	sw, gz := api.NewSliceWriter(w), acceptsGzip(r)
	defer sw.Close()
	w.Header().Set("Content-Type", sw.ContentType())
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if err := rc.Flush(); err != nil { // headers out before the first slice exists
		return
	}

	sent := make([]bool, nz)
	sendBlob := func(z int, blob []byte) error {
		sent[z] = true
		if err := sendSlice(sw, gz, z, nz, 0, blob); err != nil {
			return err
		}
		return rc.Flush()
	}
	// sendPreview emits a progressive job's coarse tier — every preview
	// slice, marked with the decimation factor and indexed on the coarse
	// grid — as soon as the preview volume is reachable. It is called before
	// any full-resolution send on every path (attach-time replay and the
	// EventPreview that precedes all slice events), so preview parts always
	// lead the stream; once emitted it is a no-op.
	previewSent := false
	sendPreview := func() error {
		if previewSent || j.qual != progressive.Progressive {
			return nil
		}
		e := s.m.previewFor(j)
		if e == nil || e.Volume == nil {
			return nil
		}
		previewSent = true
		for z := 0; z < e.Volume.Nz; z++ {
			if err := sendSlice(sw, gz, z, e.Volume.Nz, j.plan.Factor, volume.ImageToBytes(e.Volume.SliceZ(z))); err != nil {
				return err
			}
			if err := rc.Flush(); err != nil {
				return err
			}
		}
		return nil
	}
	// sendFromPFS streams slice z if it is already durable; absent slices
	// are simply not ready yet and will arrive with their event.
	sendFromPFS := func(z int) error {
		if z < 0 || z >= nz || sent[z] {
			return nil
		}
		blob, _, err := s.m.store.Peek(pfs.SlicePath(j.outPrefix(), z))
		if err != nil {
			return nil
		}
		return sendBlob(z, blob)
	}
	// finish emits any slices the event replay window lost, then the
	// terminal JSON view as the closing part, from the job's result when one
	// is reachable and otherwise from the slices on the PFS.
	finish := func() {
		if e := s.m.resultFor(j); e != nil && e.Volume != nil {
			for z := 0; z < nz; z++ {
				if !sent[z] {
					if err := sendBlob(z, volume.ImageToBytes(e.Volume.SliceZ(z))); err != nil {
						return
					}
				}
			}
		} else {
			for z := 0; z < nz; z++ {
				if err := sendFromPFS(z); err != nil {
					return
				}
			}
		}
		if sw.WriteEnd(j.snapshot()) == nil {
			_ = rc.Flush()
		}
	}

	// Replay the preview tier first if it already exists, then slices
	// already on the PFS (late subscribe to a running job), then follow the
	// live event stream; slice events arriving for what the replay already
	// sent are deduplicated by the sent bitmap.
	if err := sendPreview(); err != nil {
		return
	}
	for z := 0; z < nz; z++ {
		if err := sendFromPFS(z); err != nil {
			return
		}
	}
	for {
		batch, ok := sub.Next(r.Context())
		for _, e := range batch {
			switch {
			case e.Type == EventPreview:
				if err := sendPreview(); err != nil {
					return
				}
			case e.Type == EventSlice:
				if err := sendFromPFS(e.Z); err != nil {
					return
				}
			case e.Type.Terminal():
				finish()
				return
			}
		}
		if !ok {
			// Stream over without a terminal event in the retained log:
			// the client disconnected, the job was deleted mid-stream, or
			// the terminal event predates the replay window. If the job
			// is terminal, still close the stream properly.
			if j.State().Terminal() {
				finish()
			}
			return
		}
	}
}
