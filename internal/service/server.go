package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// Server is the HTTP front of a Manager, speaking API version api.Version.
//
//	POST   /v1/jobs               submit a Spec; 200 on cache hit, 202 when
//	                              queued, 503 + Retry-After when saturated
//	GET    /v1/jobs               list all jobs
//	GET    /v1/jobs/{id}          one job's status/progress/timings
//	GET    /v1/jobs/{id}/events   lifecycle as SSE (resumable, Last-Event-ID)
//	GET    /v1/jobs/{id}/stream   output slices as chunked multipart, live
//	GET    /v1/jobs/{id}/preview  the coarse preview volume as multipart
//	GET    /v1/jobs/{id}/slice/{z} axial slice z as PNG, as soon as written
//	GET    /v1/jobs/{id}/trace    the job's assembled span tree (JSON)
//	DELETE /v1/jobs/{id}          cancel a live job, or delete a terminal one
//	GET    /v1/metrics            queue/pool/cache/storage counters (JSON)
//	GET    /metrics               the same registry, Prometheus text exposition
//	GET    /healthz               liveness
//
// Every non-2xx response body is the structured api.Error JSON envelope;
// clients branch on its stable Code, not on the HTTP status or message.
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer wires the API routes around a manager.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.stream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/preview", s.preview)
	s.mux.HandleFunc("GET /v1/jobs/{id}/slice/{z}", s.slice)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.trace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.remove)
	s.mux.HandleFunc("GET /v1/metrics", s.metrics)
	s.mux.Handle("GET /metrics", m.Registry().Handler())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "node": m.opt.NodeID})
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON and writeErr delegate to the contract package so the daemon
// and the router emit byte-identical envelopes.
func writeJSON(w http.ResponseWriter, code int, v any) { api.WriteJSON(w, code, v) }

func writeErr(w http.ResponseWriter, code string, format string, args ...any) {
	api.WriteError(w, code, format, args...)
}

// submitCode maps Submit's sentinel errors to wire codes.
func submitCode(err error) string {
	switch {
	case errors.Is(err, ErrQueueFull):
		return api.CodeQueueFull
	case errors.Is(err, ErrCostBudget):
		return api.CodeCostBudget
	case errors.Is(err, ErrWorkingSet):
		return api.CodeWorkingSet
	case errors.Is(err, ErrQuota):
		return api.CodeQuotaExhausted
	case errors.Is(err, ErrClosed):
		return api.CodeShuttingDown
	default:
		// Everything else Submit reports is spec validation: unknown
		// phantom/window/priority, size over the hard limits, grid mismatch.
		return api.CodeInvalidSpec
	}
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxSpecBytes)).Decode(&spec); err != nil {
		writeErr(w, api.CodeBadRequest, "bad spec: %v", err)
		return
	}
	v, err := s.m.SubmitWithTrace(spec, r.Header.Get(api.TraceParentHeader))
	switch {
	case err != nil:
		writeErr(w, submitCode(err), "%v", err)
	case v.CacheHit:
		writeJSON(w, http.StatusOK, v)
	default:
		writeJSON(w, http.StatusAccepted, v)
	}
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.List())
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	v, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, api.CodeNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// slice serves one axial slice as PNG as soon as it exists: from the
// result volume once the job is done, or straight off the PFS mid-run —
// the epilogue writes slices per row group long before the job settles.
// A malformed or out-of-range index is the client's fault (bad_request); a
// valid index whose slice has not been written yet is not_yet_written,
// worth retrying; a terminal job with no reachable result — failed,
// cancelled, or done before a restart that lost its volume — will never
// produce it (terminal, as /stream).
func (s *Server) slice(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.m.job(id)
	if !ok {
		writeErr(w, api.CodeNotFound, "no such job %q", id)
		return
	}
	nz := j.resultNz()
	z, err := strconv.Atoi(r.PathValue("z"))
	if err != nil {
		writeErr(w, api.CodeBadRequest, "slice index must be an integer")
		return
	}
	if z < 0 || z >= nz {
		writeErr(w, api.CodeBadRequest, "slice %d out of range [0,%d)", z, nz)
		return
	}
	// The state is read first: a job terminal by then holds whatever result
	// it will ever hold, since the result lands with the flip.
	var img *volume.Image
	st := j.State()
	if e := s.m.resultFor(j); e != nil && e.Volume != nil {
		img = e.Volume.SliceZ(z)
	} else if st.Terminal() {
		// Terminal without a result: the slice will never arrive, so a
		// retryable not_yet_written would loop clients forever — terminal,
		// matching /stream.
		writeErr(w, api.CodeTerminal, "job %s is %s: slice %d will not be produced", id, st, z)
		return
	} else if img, _, err = s.m.store.ReadImage(pfs.SlicePath(j.outPrefix(), z)); err != nil {
		writeErr(w, api.CodeNotYetWritten, "slice %d of job %s not written yet (state %s)", z, id, j.State())
		return
	}
	w.Header().Set("Content-Type", "image/png")
	if err := img.WritePNG(w, 0, 0); err != nil {
		// Headers are gone; all we can do is drop the connection mid-body.
		return
	}
}

// remove cancels a live job (202) or deletes a terminal one (204). Cancel
// decides which under the job's lock and reports ErrAlreadyTerminal for a
// job that has settled — perhaps just now — so the verb deletes it instead
// of surfacing a spurious conflict, whenever the job settles.
func (s *Server) remove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.m.Cancel(id); {
	case err == nil:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "action": "cancelled"})
		return
	case errors.Is(err, ErrNotFound):
		writeErr(w, api.CodeNotFound, "no such job %q", id)
		return
	}
	switch err := s.m.Delete(id); {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, ErrNotFound): // raced with a concurrent DELETE
		writeErr(w, api.CodeNotFound, "%v", err)
	default:
		writeErr(w, api.CodeNotTerminal, "%v", err)
	}
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Metrics())
}

// trace serves the job's assembled span tree: complete once the job has
// settled, partial (Complete == false) while it is still in flight.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	t, err := s.m.TraceFor(r.PathValue("id"))
	if err != nil {
		writeErr(w, api.CodeNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, t)
}
