package service

import (
	"net/http"

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

// parts frames one handler's slice parts through the shared codec, encoding
// each from a view of its plane into one reused buffer. It never flushes:
// the handler does, once per batch of parts.
type parts struct {
	sw  api.SliceWriter
	buf []byte
}

// send frames slice z of total (factor > 0 marks a preview-tier part).
func (ps *parts) send(z, total, factor int, img *volume.Image) error {
	ps.buf = volume.AppendImage(ps.buf[:0], img)
	return ps.sw.WriteSlice(api.SlicePart{Z: z, Total: total, Factor: factor, Payload: ps.buf})
}

// stream serves GET /v1/jobs/{id}/stream: the job's output slices as a
// chunked multipart/mixed body, each part one z-slice in the PFS image
// format (little-endian W,H header + float32 payload), delivered as its row
// group finishes — while the job is still running. Attaching late replays
// the slices already handed over first, then follows the live epilogue. It
// resolves its volume once and keeps it — the job's volume, which becomes
// its result, or a settled job's cached result — so a consumer behind at
// the settle gets every slice once even if the cache evicts it. The final
// part is the job's terminal JSON view.
//
// Progressive jobs prepend the coarse tier: as soon as the preview volume
// exists (EventPreview, or immediately on attach once built), its slices
// are emitted as parts marked with HeaderPreviewFactor, indexed on the
// coarse grid — always before the first full-resolution part, so a client
// has a renderable volume while the full pipeline is still in its first
// rounds. Preview-quality jobs are served like ordinary jobs whose result
// happens to be the coarse volume: plain parts, coarse slice total, no
// preview header.
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
	// A settled job without a reachable result would stream nothing for
	// good. A queued job's volume is resolved by the first send that finds it.
	_, vol, st := s.m.slice(j, 0, nil)
	if st.Terminal() && vol == nil {
		writeErr(w, api.CodeTerminal, "job %s is %s: no slice stream", id, st)
		return
	}
	rc := http.NewResponseController(w)
	ps := &parts{sw: api.NewSliceWriter(w)}
	defer ps.sw.Close()
	w.Header().Set("Content-Type", ps.sw.ContentType())
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// sendPreview emits a progressive job's coarse tier as soon as the
	// preview volume is reachable. It is called before any full-resolution
	// send on every path (attach-time replay and the EventPreview that
	// precedes all slice events), so preview parts always lead the stream;
	// once emitted it is a no-op.
	previewSent := false
	sendPreview := func() error {
		if previewSent || j.spec.Quality != api.QualityProgressive {
			return nil
		}
		pv := s.m.previewFor(j)
		if pv == nil {
			return nil
		}
		previewSent = true
		_, vol, _ = s.m.slice(j, 0, vol) // the job's volume, before writes can block
		for z := 0; z < pv.Nz; z++ {
			if err := ps.send(z, pv.Nz, j.plan.Factor, planeZ(pv, z)); err != nil {
				return err
			}
		}
		return nil
	}
	// send streams slice z unless it went already or is not there: a slice
	// not handed over yet arrives with its event, and one the event replay
	// window lost is sent by finish.
	sent := make([]bool, nz)
	send := func(z int) error {
		if z < 0 || z >= nz || sent[z] {
			return nil
		}
		var img *volume.Image
		img, vol, _ = s.m.slice(j, z, vol)
		if img == nil {
			return nil
		}
		sent[z] = true
		return ps.send(z, nz, 0, img)
	}
	// finish emits, from the volume the stream holds, every slice not yet
	// sent, then the terminal JSON view as the closing part. A job that
	// failed or was cancelled sends no more slices, only the view.
	finish := func() {
		for z := 0; z < nz; z++ {
			if send(z) != nil {
				return
			}
		}
		if ps.sw.WriteEnd(j.snapshot()) == nil {
			_ = rc.Flush()
		}
	}

	// Replay the preview tier first if it already exists, then the slices
	// already handed over (late subscribe to a running job), then follow
	// the live event stream; slice events arriving for what the replay
	// already sent are deduplicated by the sent bitmap. The writes reach
	// the client at a flush: one after the replay (the headers go with it,
	// before the first slice exists), one after each batch of events, and
	// one in finish.
	if err := sendPreview(); err != nil {
		return
	}
	for z := 0; z < nz; z++ {
		if err := send(z); err != nil {
			return
		}
	}
	if err := rc.Flush(); err != nil {
		return
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
				if err := send(e.Z); err != nil {
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
		if err := rc.Flush(); err != nil {
			return
		}
	}
}
