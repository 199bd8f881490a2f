package api

import (
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"mime"
	"mime/multipart"
	"net/textproto"
	"strconv"
)

// Wire constants of the streaming surface. GET /v1/jobs/{id}/stream is a
// chunked multipart/mixed body: one part per output z-slice in the PFS image
// format (little-endian uint32 W, H header + float32 payload), delivered as
// each row group's epilogue lands it — while the job is still running —
// followed by a closing JSON part carrying the job's terminal View.
const (
	// ContentTypeSlice is the Content-Type of one slice part.
	ContentTypeSlice = "application/x-ifdk-slice"
	// HeaderSliceZ carries the part's global z index (0-based).
	HeaderSliceZ = "X-Slice-Z"
	// HeaderSliceTotal carries the volume's total slice count Nz.
	HeaderSliceTotal = "X-Slice-Total"
	// HeaderStreamEnd is set on the closing JSON part to the job's terminal
	// State.
	HeaderStreamEnd = "X-Stream-End"
	// HeaderPreviewFactor marks a slice part as belonging to the decimated
	// preview tier of a progressive job and carries its decimation factor.
	// Preview parts are emitted before any full-resolution part; their
	// HeaderSliceZ / HeaderSliceTotal indices address the coarse grid
	// (total = Nz/factor), so consumers must reassemble the two tiers into
	// separate volumes. Absent on full-resolution parts.
	HeaderPreviewFactor = "X-Preview-Factor"
	// EncodingGzip is the per-part Content-Encoding applied to slice
	// payloads when the request advertised Accept-Encoding: gzip. Parts are
	// compressed independently so a late-attaching client still decodes
	// from its first part.
	EncodingGzip = "gzip"
)

// SlicePart is one part of a slice stream (/stream, /preview). Payload is
// opaque here — the PFS image bytes, under Encoding when one was negotiated —
// so a relay forwards compressed parts untouched and only the final consumer
// decodes. The closing part of /stream carries only End, the terminal view.
type SlicePart struct {
	Z, Total int    // slice index and slice count, on the part's own grid
	Factor   int    // preview decimation factor; 0 on full-resolution parts
	Encoding string // per-part Content-Encoding ("" or EncodingGzip)
	Payload  []byte
	End      *View
}

// SliceWriter emits a slice stream as multipart/mixed: the one builder of
// part headers, for the daemon and the router's relay alike.
type SliceWriter struct{ mw *multipart.Writer }

// NewSliceWriter starts a slice stream on w under a fresh boundary.
func NewSliceWriter(w io.Writer) SliceWriter { return SliceWriter{multipart.NewWriter(w)} }

// ContentType is the response Content-Type announcing the stream's boundary.
func (sw SliceWriter) ContentType() string { return "multipart/mixed; boundary=" + sw.mw.Boundary() }

// WriteSlice emits one slice part.
func (sw SliceWriter) WriteSlice(p SlicePart) error {
	h := textproto.MIMEHeader{}
	h.Set("Content-Type", ContentTypeSlice)
	h.Set(HeaderSliceZ, strconv.Itoa(p.Z))
	h.Set(HeaderSliceTotal, strconv.Itoa(p.Total))
	if p.Factor > 0 {
		h.Set(HeaderPreviewFactor, strconv.Itoa(p.Factor))
	}
	if p.Encoding != "" {
		h.Set("Content-Encoding", p.Encoding)
	}
	part, err := sw.mw.CreatePart(h)
	if err != nil {
		return err
	}
	_, err = part.Write(p.Payload)
	return err
}

// WriteEnd emits the closing part of /stream: the job's terminal view.
func (sw SliceWriter) WriteEnd(v View) error {
	h := textproto.MIMEHeader{}
	h.Set("Content-Type", "application/json")
	h.Set(HeaderStreamEnd, string(v.State))
	part, err := sw.mw.CreatePart(h)
	if err != nil {
		return err
	}
	return json.NewEncoder(part).Encode(v)
}

// Close writes the final boundary.
func (sw SliceWriter) Close() error { return sw.mw.Close() }

// ReadSlices decodes a slice stream, announced by the response's
// Content-Type — the one multipart parser of the SDK, the router's relay and
// the tests. A part is yielded only once read whole with its headers
// validated; an error is the last element. A body cut between parts merely
// ends the sequence early: completeness is the closing part (or the part
// count), which consumers check anyway — a server may end early too.
func ReadSlices(contentType string, body io.Reader) iter.Seq2[SlicePart, error] {
	return func(yield func(SlicePart, error) bool) {
		mt, params, err := mime.ParseMediaType(contentType)
		if err != nil || mt != "multipart/mixed" || params["boundary"] == "" {
			yield(SlicePart{}, fmt.Errorf("api: slice stream Content-Type %q is not multipart/mixed with a boundary", contentType))
			return
		}
		mr := multipart.NewReader(body, params["boundary"])
		for {
			part, err := mr.NextPart()
			if err == io.EOF {
				return
			}
			var p SlicePart
			if err == nil {
				p, err = readPart(part)
			}
			if !yield(p, err) || err != nil {
				return
			}
		}
	}
}

func readPart(part *multipart.Part) (p SlicePart, err error) {
	h := part.Header
	if h.Get("Content-Type") == "application/json" {
		p.End = new(View)
		return p, json.NewDecoder(part).Decode(p.End)
	}
	p.Encoding = h.Get("Content-Encoding")
	if p.Z, err = headerInt(h, HeaderSliceZ, 0); err != nil {
		return p, err
	}
	if p.Total, err = headerInt(h, HeaderSliceTotal, p.Z+1); err != nil {
		return p, err
	}
	if h.Get(HeaderPreviewFactor) != "" {
		p.Factor, err = headerInt(h, HeaderPreviewFactor, 1)
	}
	if err == nil {
		p.Payload, err = io.ReadAll(part)
	}
	return p, err
}

// headerInt parses an integer part header no smaller than min.
func headerInt(h textproto.MIMEHeader, key string, min int) (int, error) {
	n, err := strconv.Atoi(h.Get(key))
	if err != nil || n < min {
		return 0, fmt.Errorf("api: slice part with bad %s header %q", key, h.Get(key))
	}
	return n, nil
}
