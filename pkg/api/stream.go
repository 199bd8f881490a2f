package api

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
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
)

// SlicePart is one part of a job's /stream, either tier. Payload is the
// PFS image bytes, which a relay forwards untouched and only the final
// consumer decodes. The closing part carries only End, the terminal view.
type SlicePart struct {
	Z, Total int // slice index and slice count, on the part's own grid
	Factor   int // preview decimation factor; 0 on full-resolution parts
	Payload  []byte
	End      *View
}

// SliceWriter emits a slice stream as multipart/mixed: the one builder of
// part headers, for the daemon and the router's relay alike. Every part
// states its Content-Length, which is how ReadSlices frames it.
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
	return sw.write(h, p.Payload)
}

// WriteEnd emits the closing part of /stream: the job's terminal view, as
// JSON and a newline.
func (sw SliceWriter) WriteEnd(v View) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	h := textproto.MIMEHeader{}
	h.Set("Content-Type", "application/json")
	h.Set(HeaderStreamEnd, string(v.State))
	return sw.write(h, append(b, '\n'))
}

// write emits one part: h, its Content-Length, then payload.
func (sw SliceWriter) write(h textproto.MIMEHeader, payload []byte) error {
	h.Set("Content-Length", strconv.Itoa(len(payload)))
	part, err := sw.mw.CreatePart(h)
	if err != nil {
		return err
	}
	_, err = part.Write(payload)
	return err
}

// Close writes the final boundary.
func (sw SliceWriter) Close() error { return sw.mw.Close() }

// ReadSlices decodes a slice stream, announced by the response's
// Content-Type — the one multipart parser of the SDK, the router's relay and
// the tests. It frames the stream itself: the boundary line, the part's
// headers, then exactly the Content-Length bytes they state, read into one
// buffer of that size. A part is handed out as soon as that payload is in —
// not when the next part's delimiter arrives, which the writer emits only
// when the next part starts — and if the delimiter does not follow the
// payload, the next element is an error. A part without a valid
// Content-Length, with any Content-Encoding, or a slice part whose length is
// not its W×H image header's or whose image is empty, is an error. A part is yielded only once read
// whole with its headers validated; an error is the last element, and a
// stream cut before its closing boundary ends in one.
func ReadSlices(contentType string, body io.Reader) iter.Seq2[SlicePart, error] {
	return func(yield func(SlicePart, error) bool) {
		mt, params, err := mime.ParseMediaType(contentType)
		if err != nil || mt != "multipart/mixed" || params["boundary"] == "" {
			yield(SlicePart{}, fmt.Errorf("api: slice stream Content-Type %q is not multipart/mixed with a boundary", contentType))
			return
		}
		br := bufio.NewReader(body)
		r := sliceReader{br: br, tp: textproto.NewReader(br), delim: []byte("\r\n--" + params["boundary"])}
		err = r.expect(r.delim[2:])
		for err == nil {
			var p SlicePart
			var more bool
			if more, err = r.open(); err != nil || !more {
				break
			}
			if p, err = r.part(); err != nil {
				break
			}
			if !yield(p, nil) {
				return
			}
			err = r.expect(r.delim)
		}
		if err != nil {
			yield(SlicePart{}, err)
		}
	}
}

// maxPrealloc caps what a part reserves before its bytes arrive: a payload
// past it grows as it is read, so a hostile Content-Length costs at most
// this much ahead of the data.
const maxPrealloc = 16 << 20

var errStreamCut = fmt.Errorf("api: slice stream cut short: %w", io.ErrUnexpectedEOF)

// sliceReader frames one multipart slice stream: tp reads each part's
// header block from br. delim is the CRLF-led delimiter that ends every
// part; the opening boundary is delim[2:].
type sliceReader struct {
	br    *bufio.Reader
	tp    *textproto.Reader
	delim []byte
}

// expect consumes s, which must come next.
func (r *sliceReader) expect(s []byte) error {
	got, err := r.br.Peek(len(s))
	switch {
	case !bytes.HasPrefix(s, got):
		return errors.New("api: slice stream: multipart delimiter missing")
	case err != nil:
		return cut(err)
	}
	_, err = r.br.Discard(len(s))
	return err
}

// cut names a read error: the body ending before the closing boundary, or
// whatever else stopped it.
func cut(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errStreamCut
	}
	return fmt.Errorf("api: slice stream: %w", err)
}

// open reads what follows a boundary: "--" closes the stream, CRLF opens a
// part.
func (r *sliceReader) open() (more bool, err error) {
	if err := r.expect([]byte("\r\n")); err == nil {
		return true, nil
	}
	return false, r.expect([]byte("--"))
}

// part reads one part's headers and payload, leaving its delimiter unread
// so the caller hands the part out before it arrives.
func (r *sliceReader) part() (p SlicePart, err error) {
	h, err := r.tp.ReadMIMEHeader()
	if err != nil {
		return p, cut(err)
	}
	if _, ok := h["Content-Encoding"]; ok {
		return p, fmt.Errorf("api: slice part with Content-Encoding %q", h.Get("Content-Encoding"))
	}
	n, err := strconv.Atoi(h.Get("Content-Length"))
	if err != nil || n < 0 || len(h["Content-Length"]) != 1 {
		return p, fmt.Errorf("api: slice part with bad Content-Length %q", h["Content-Length"])
	}
	payload, err := r.payload(n)
	if err != nil {
		return p, err
	}
	if h.Get("Content-Type") == "application/json" {
		p.End = new(View)
		if err := json.Unmarshal(payload, p.End); err != nil {
			return p, fmt.Errorf("api: closing view: %w", err)
		}
		return p, nil
	}
	if p.Z, err = headerInt(h, HeaderSliceZ, 0); err != nil {
		return p, err
	}
	if p.Total, err = headerInt(h, HeaderSliceTotal, p.Z+1); err != nil {
		return p, err
	}
	if h.Get(HeaderPreviewFactor) != "" {
		if p.Factor, err = headerInt(h, HeaderPreviewFactor, 1); err != nil {
			return p, err
		}
	}
	if n < 8 || (n-8)%4 != 0 ||
		uint64(n-8)/4 != uint64(binary.LittleEndian.Uint32(payload))*uint64(binary.LittleEndian.Uint32(payload[4:])) {
		return p, fmt.Errorf("api: slice part of %d bytes does not hold the W×H image its header gives", n)
	}
	if n == 8 {
		return p, fmt.Errorf("api: slice part with an empty %d×%d image", binary.LittleEndian.Uint32(payload), binary.LittleEndian.Uint32(payload[4:]))
	}
	p.Payload = payload
	return p, nil
}

// payload reads a part's n bytes into one buffer of that size, reserving at
// most maxPrealloc before the bytes arrive.
func (r *sliceReader) payload(n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, maxPrealloc))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*cap(buf))), buf...)
		}
		k, err := io.ReadFull(r.br, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, cut(err)
		}
	}
	return buf, nil
}

// headerInt parses an integer part header no smaller than min.
func headerInt(h textproto.MIMEHeader, key string, min int) (int, error) {
	n, err := strconv.Atoi(h.Get(key))
	if err != nil || n < min {
		return 0, fmt.Errorf("api: slice part with bad %s header %q", key, h.Get(key))
	}
	return n, nil
}
