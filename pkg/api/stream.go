package api

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
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
// the tests. It frames the stream itself: the boundary line, the part's
// headers, then the payload. A plain slice part is read by the size its W×H
// image header gives, into one buffer of exactly that size, and handed out
// as soon as that payload is in — not when the next part's delimiter
// arrives, which the writer emits only when the next part starts. A gzip
// part ends where its one gzip member does and is handed out the same way,
// its compressed bytes as the payload. If the delimiter does not follow
// such a payload, the next element is an error. JSON parts, and parts of
// any other encoding, are read up to the delimiter. A part is yielded only
// once read whole with its headers validated; an error is the last
// element, and a stream cut before its closing boundary ends in one.
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
			var more, pending bool
			if more, err = r.open(); err != nil || !more {
				break
			}
			if p, pending, err = r.part(); err != nil {
				break
			}
			if !yield(p, nil) {
				return
			}
			if pending {
				err = r.expect(r.delim)
			}
		}
		if err != nil {
			yield(SlicePart{}, err)
		}
	}
}

// maxPrealloc caps what a sized part reserves before its bytes arrive: a
// payload past it grows as it is read, so a hostile W×H header costs at
// most this much ahead of the data.
const maxPrealloc = 16 << 20

var errStreamCut = fmt.Errorf("api: slice stream cut short: %w", io.ErrUnexpectedEOF)

// sliceReader frames one multipart slice stream: tp reads each part's
// header block from br. delim is the CRLF-led delimiter that ends every
// part; the opening boundary is delim[2:]. gz, once made, inflates every
// gzip part in turn.
type sliceReader struct {
	br    *bufio.Reader
	tp    *textproto.Reader
	delim []byte
	gz    *gzip.Reader
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

// part reads one part's headers and payload. A sized or gzip part leaves
// its delimiter pending, unread, so the caller hands the part out before
// it arrives; a scanned part consumes it.
func (r *sliceReader) part() (p SlicePart, pending bool, err error) {
	h, err := r.tp.ReadMIMEHeader()
	if err != nil {
		return p, false, cut(err)
	}
	if h.Get("Content-Type") == "application/json" {
		payload, err := r.scan()
		if err != nil {
			return p, false, err
		}
		p.End = new(View)
		return p, false, json.Unmarshal(payload, p.End)
	}
	p.Encoding = h.Get("Content-Encoding")
	if p.Z, err = headerInt(h, HeaderSliceZ, 0); err != nil {
		return p, false, err
	}
	if p.Total, err = headerInt(h, HeaderSliceTotal, p.Z+1); err != nil {
		return p, false, err
	}
	if h.Get(HeaderPreviewFactor) != "" {
		if p.Factor, err = headerInt(h, HeaderPreviewFactor, 1); err != nil {
			return p, false, err
		}
	}
	switch p.Encoding {
	case "":
		p.Payload, err = r.sized()
	case EncodingGzip:
		p.Payload, err = r.member()
	default:
		p.Payload, err = r.scan()
		return p, false, err
	}
	return p, true, err
}

// sized reads a plain slice payload — the 8-byte W×H header and 4·W·H
// bytes of float32 — into one buffer of that size, reserving at most
// maxPrealloc before the bytes arrive.
func (r *sliceReader) sized() ([]byte, error) {
	head, err := r.br.Peek(8)
	if err != nil {
		return nil, cut(err)
	}
	w, h := binary.LittleEndian.Uint32(head), binary.LittleEndian.Uint32(head[4:])
	px := uint64(w) * uint64(h)
	if px > (math.MaxInt-8)/4 {
		return nil, fmt.Errorf("api: slice part header %dx%d is too large", w, h)
	}
	n := 8 + 4*int(px)
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

// member reads a gzip payload: one gzip member, inflated only to find
// where it ends. The gzip reader reads through a keeper, an io.ByteReader,
// so it stops at the member's last byte, and the keeper's copy of what it
// read is the payload.
func (r *sliceReader) member() ([]byte, error) {
	k := &keeper{br: r.br}
	var err error
	if r.gz == nil {
		r.gz, err = gzip.NewReader(k)
	} else {
		err = r.gz.Reset(k)
	}
	if err == nil {
		r.gz.Multistream(false)
		_, err = io.Copy(io.Discard, r.gz)
	}
	switch {
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return nil, cut(err)
	case err != nil:
		return nil, fmt.Errorf("api: slice part: %w", err)
	}
	return k.kept, nil
}

// keeper reads from br and keeps every byte it hands out.
type keeper struct {
	br   *bufio.Reader
	kept []byte
}

func (k *keeper) Read(p []byte) (int, error) {
	n, err := k.br.Read(p)
	k.kept = append(k.kept, p[:n]...)
	return n, err
}

func (k *keeper) ReadByte() (byte, error) {
	c, err := k.br.ReadByte()
	if err == nil {
		k.kept = append(k.kept, c)
	}
	return c, err
}

// scan reads a payload up to and including the delimiter that ends it.
func (r *sliceReader) scan() ([]byte, error) {
	var buf []byte
	for {
		line, err := r.br.ReadSlice('\n')
		buf = append(buf, line...)
		switch {
		case err == bufio.ErrBufferFull:
			continue
		case err != nil:
			return nil, cut(err)
		}
		if next, _ := r.br.Peek(len(r.delim) - 2); bytes.HasSuffix(buf, r.delim[:2]) && bytes.Equal(next, r.delim[2:]) {
			_, err := r.br.Discard(len(next))
			return buf[:len(buf)-2], err
		}
	}
}

// headerInt parses an integer part header no smaller than min.
func headerInt(h textproto.MIMEHeader, key string, min int) (int, error) {
	n, err := strconv.Atoi(h.Get(key))
	if err != nil || n < min {
		return 0, fmt.Errorf("api: slice part with bad %s header %q", key, h.Get(key))
	}
	return n, nil
}
