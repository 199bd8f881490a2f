package api

import (
	"bytes"
	"io"
	"iter"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The wire, pinned to bytes. Everything below the boundary constant was
// captured from a daemon built at the commit before this codec existed (a
// progressive nx=16 shepplogan job: its /events and its /stream), so the
// writer is compared against what the hand-rolled framers emitted and the
// reader against bytes it did not produce — helpers sharing the reader
// cannot hide a symmetric bug. Two edits were made by hand when every part
// came to state its length: each part gained its Content-Length line, and
// the coarse part, captured gzip-encoded, carries its plain image bytes.
const goldenBoundary = "b4c49d8eb77f0dea6e26059a441b9ab62d15f52538e83b36449c108b965a"

const goldenEventFrame = "id: 3\nevent: preview\n" +
	`data: {"seq":3,"job":"j00000001","type":"preview","time":"2026-10-03T08:07:34.680084572Z","total":8,"z":0,"factor":2}` + "\n\n"

var goldenEvent = Event{Seq: 3, Job: "j00000001", Type: EventPreview, Time: "2026-10-03T08:07:34.680084572Z", Total: 8, Factor: 2}

// Coarse slice 0 (8×8, all zero) and full slice 0 (16×16, all zero) in the
// raw PFS image format.
var (
	goldenPreviewPayload = "\x08\x00\x00\x00\x08\x00\x00\x00" + strings.Repeat("\x00", 4*8*8)
	goldenRawPayload     = "\x10\x00\x00\x00\x10\x00\x00\x00" + strings.Repeat("\x00", 4*16*16)
)

const goldenViewJSON = `{"id":"j00000001","state":"done","spec":{"phantom":"shepplogan","nx":16,"nu":32,"np":32,"r":2,"c":2,"window":"ram-lak","quality":"progressive","priority":"","verify":false,"client":"anonymous"},"priority":"normal","progress":1,"cache_hit":false,"submitted":"2026-10-03T08:07:34.674519338Z","started":"2026-10-03T08:07:34.674604579Z","finished":"2026-10-03T08:07:34.682507225Z","wait_sec":0.000081863,"run_sec":0.007902647,"est_run_sec":0.00004403571111449018,"cost":0.00004403571111449018,"est_bytes":311296,"trace_id":"f2b8f504c1a88ea56f9ebe709d4ceddb","stages":{"load":0.000024859,"filter":0.000161932,"allgather":0.000558535,"backproject":0.000973881,"compute":0.002201691,"reduce":0.00122739,"store":0.000047104,"total":0.002349057},"quality":"progressive","preview_factor":2}`

var goldenView = View{
	ID: "j00000001", State: StateDone, Priority: "normal", Progress: 1,
	Spec: Spec{Phantom: "shepplogan", NX: 16, NU: 32, NP: 32, R: 2, C: 2, Window: "ram-lak",
		Quality: "progressive", Client: "anonymous"},
	Submitted: "2026-10-03T08:07:34.674519338Z", Started: "2026-10-03T08:07:34.674604579Z",
	Finished: "2026-10-03T08:07:34.682507225Z", WaitSec: 0.000081863, RunSec: 0.007902647,
	EstRunSec: 0.00004403571111449018, Cost: 0.00004403571111449018, EstBytes: 311296,
	TraceID: "f2b8f504c1a88ea56f9ebe709d4ceddb",
	Stages: Stages{Load: 0.000024859, Filter: 0.000161932, AllGather: 0.000558535, Backproject: 0.000973881,
		Compute: 0.002201691, Reduce: 0.00122739, Store: 0.000047104, Total: 0.002349057},
	Quality: "progressive", PreviewFactor: 2,
}

// goldenStream is one preview part, one full-resolution part and the
// closing view part (780 bytes of JSON and a newline), exactly as they
// sit on the wire.
var goldenStream = "--" + goldenBoundary + "\r\n" +
	"Content-Length: 264\r\nContent-Type: application/x-ifdk-slice\r\nX-Preview-Factor: 2\r\nX-Slice-Total: 8\r\nX-Slice-Z: 0\r\n\r\n" +
	goldenPreviewPayload +
	"\r\n--" + goldenBoundary + "\r\n" +
	"Content-Length: 1032\r\nContent-Type: application/x-ifdk-slice\r\nX-Slice-Total: 16\r\nX-Slice-Z: 0\r\n\r\n" +
	goldenRawPayload +
	"\r\n--" + goldenBoundary + "\r\n" +
	"Content-Length: 781\r\nContent-Type: application/json\r\nX-Stream-End: done\r\n\r\n" +
	goldenViewJSON + "\n" +
	"\r\n--" + goldenBoundary + "--\r\n"

var goldenParts = []SlicePart{
	{Z: 0, Total: 8, Factor: 2, Payload: []byte(goldenPreviewPayload)},
	{Z: 0, Total: 16, Payload: []byte(goldenRawPayload)},
	{End: &goldenView},
}

const goldenContentType = "multipart/mixed; boundary=" + goldenBoundary

func TestEventFrameGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEvent(&buf, goldenEvent); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenEventFrame {
		t.Fatalf("WriteEvent framed\n%q\nthe wire has\n%q", buf.String(), goldenEventFrame)
	}
	n := 0
	for e, err := range ReadEvents(strings.NewReader(goldenEventFrame + ": keep-alive comment\n\n" + goldenEventFrame)) {
		if err != nil {
			t.Fatal(err)
		}
		if e != goldenEvent {
			t.Fatalf("ReadEvents decoded %+v, want %+v", e, goldenEvent)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("ReadEvents yielded %d events, want 2", n)
	}
}

func TestSliceStreamGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSliceWriter(&buf)
	if err := sw.mw.SetBoundary(goldenBoundary); err != nil {
		t.Fatal(err)
	}
	if sw.ContentType() != goldenContentType {
		t.Fatalf("ContentType() = %q, want %q", sw.ContentType(), goldenContentType)
	}
	for _, p := range goldenParts[:2] {
		if err := sw.WriteSlice(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.WriteEnd(goldenView); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenStream {
		t.Fatalf("SliceWriter emitted\n%q\nthe wire has\n%q", buf.String(), goldenStream)
	}

	var got []SlicePart
	for p, err := range ReadSlices(goldenContentType, strings.NewReader(goldenStream)) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	if !reflect.DeepEqual(got, goldenParts) {
		t.Fatalf("ReadSlices decoded %+v, want %+v", got, goldenParts)
	}
}

// slicePartWire frames one hand-written part under the golden boundary, the
// closing boundary included, with a Content-Length line stating the
// payload's length ahead of headers.
func slicePartWire(headers, payload string) string {
	return unsizedPartWire("Content-Length: "+strconv.Itoa(len(payload))+"\r\n"+headers, payload)
}

// unsizedPartWire is slicePartWire with headers taken as they are.
func unsizedPartWire(headers, payload string) string {
	return "--" + goldenBoundary + "\r\n" + headers + "\r\n" + payload + "\r\n--" + goldenBoundary + "--\r\n"
}

// Hostile slice streams: each must end in an error — never a panic, never a
// part handed out after or instead of it.
var malformedSliceStreams = []struct{ name, contentType, body string }{
	{"not multipart", "application/json", goldenStream},
	{"no boundary", "multipart/mixed", goldenStream},
	{"missing X-Slice-Z", goldenContentType, slicePartWire("Content-Type: application/x-ifdk-slice\r\nX-Slice-Total: 8\r\n", "x")},
	{"negative z", goldenContentType, slicePartWire("X-Slice-Total: 8\r\nX-Slice-Z: -1\r\n", "x")},
	{"missing total", goldenContentType, slicePartWire("X-Slice-Z: 0\r\n", "x")},
	{"total zero", goldenContentType, slicePartWire("X-Slice-Total: 0\r\nX-Slice-Z: 0\r\n", "x")},
	{"total negative", goldenContentType, slicePartWire("X-Slice-Total: -4\r\nX-Slice-Z: 0\r\n", "x")},
	{"z beyond total", goldenContentType, slicePartWire("X-Slice-Total: 8\r\nX-Slice-Z: 8\r\n", "x")},
	{"factor not an integer", goldenContentType, slicePartWire("X-Preview-Factor: two\r\nX-Slice-Total: 8\r\nX-Slice-Z: 0\r\n", "x")},
	{"factor below one", goldenContentType, slicePartWire("X-Preview-Factor: 0\r\nX-Slice-Total: 8\r\nX-Slice-Z: 0\r\n", "x")},
	{"bad closing view", goldenContentType, slicePartWire("Content-Type: application/json\r\nX-Stream-End: done\r\n", `{"id":`)},
	{"ends mid-part", goldenContentType, goldenStream[:strings.Index(goldenStream, goldenRawPayload)+100]},
	{"ends inside the closing view", goldenContentType, goldenStream[:strings.Index(goldenStream, goldenViewJSON)+100]},
	{"header claims 2³²−1 × 2³²−1 pixels", goldenContentType, slicePartWire(plainSliceHeaders, "\xff\xff\xff\xff\xff\xff\xff\xff"+strings.Repeat("\x00", 64))},
	{"header gives a 0×4 image", goldenContentType, slicePartWire(plainSliceHeaders, rawSlice(0, 4, 0))},
	{"header gives a 4×0 image", goldenContentType, slicePartWire(plainSliceHeaders, rawSlice(4, 0, 0))},
	{"payload shorter than its header", goldenContentType, slicePartWire(plainSliceHeaders, rawSlice(4, 4, 4*15))},
	{"payload longer than its header", goldenContentType, slicePartWire(plainSliceHeaders, rawSlice(4, 4, 4*17))},
	{"no delimiter after the payload", goldenContentType, "--" + goldenBoundary + "\r\nContent-Length: 72\r\n" + plainSliceHeaders + "\r\n" + rawSlice(4, 4, 4*16)},
	{"ends inside the header block", goldenContentType, goldenStream[:strings.Index(goldenStream, "X-Slice-Total: 16")+8]},
	{"Content-Length missing", goldenContentType, unsizedPartWire(plainSliceHeaders, rawSlice(4, 4, 4*16))},
	{"Content-Length not an integer", goldenContentType, unsizedPartWire("Content-Length: 72.0\r\n"+plainSliceHeaders, rawSlice(4, 4, 4*16))},
	{"Content-Length negative", goldenContentType, unsizedPartWire("Content-Length: -72\r\n"+plainSliceHeaders, rawSlice(4, 4, 4*16))},
	{"Content-Length beyond the int range", goldenContentType, unsizedPartWire("Content-Length: 9223372036854775808\r\n"+plainSliceHeaders, rawSlice(4, 4, 4*16))},
	{"Content-Length stated twice", goldenContentType, unsizedPartWire("Content-Length: 72\r\nContent-Length: 72\r\n"+plainSliceHeaders, rawSlice(4, 4, 4*16))},
	{"Content-Length not the image header's 8+4·W·H", goldenContentType, unsizedPartWire("Content-Length: 68\r\n"+plainSliceHeaders, rawSlice(4, 4, 4*16))},
	{"closing view without Content-Length", goldenContentType, unsizedPartWire("Content-Type: application/json\r\nX-Stream-End: done\r\n", goldenViewJSON+"\n")},
	{"part with Content-Encoding: gzip", goldenContentType, slicePartWire("Content-Encoding: gzip\r\n"+plainSliceHeaders, rawSlice(4, 4, 4*16))},
}

// plainSliceHeaders are a valid full-resolution part's headers.
const plainSliceHeaders = "Content-Type: application/x-ifdk-slice\r\nX-Slice-Total: 8\r\nX-Slice-Z: 0\r\n"

// rawSlice is a plain slice payload whose image header reads w×h, followed
// by n payload bytes — consistent with it only when n = 4·w·h.
func rawSlice(w, h byte, n int) string {
	return string([]byte{w, 0, 0, 0, h, 0, 0, 0}) + strings.Repeat("\x01", n)
}

var malformedEventStreams = []struct{ name, body string }{
	{"bad JSON in a data line", goldenEventFrame + "data: {\"seq\":\n\n"},
	{"data line is not an object", "data: 7\n\n"},
	{"line over the 1 MiB cap", "data: {\"job\":\"" + strings.Repeat("j", 1<<20) + "\"}\n\n"},
	{"payload that re-encodes past the cap", "data: {\"job\":\"" + strings.Repeat("<", 200_000) + "\"}\n\n"},
	{"invalid UTF-8 that re-encodes past the cap", "data: {\"job\":\"" + strings.Repeat("\xff", 400_000) + "\"}\n\n"},
}

// WriteEvent refuses an event ReadEvents could not read back, and writes
// nothing for it.
func TestWriteEventLineCap(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEvent(&buf, Event{Seq: 1, Type: EventFailed, Error: strings.Repeat("<", 200_000)}); err == nil || buf.Len() != 0 {
		t.Fatalf("a 1.2 MB data line: err %v, %d bytes written; want an error and nothing", err, buf.Len())
	}
	if err := WriteEvent(&buf, Event{Seq: 1, Type: EventFailed, Error: strings.Repeat("e", 1<<19)}); err != nil {
		t.Fatalf("a 512 KiB data line: %v", err)
	}
	if errs, _ := drain(ReadEvents(&buf)); errs != 0 {
		t.Fatal("a line WriteEvent framed did not read back")
	}
}

func TestMalformedStreamsReturnErrors(t *testing.T) {
	for _, tc := range malformedSliceStreams {
		if errs, after := drain(ReadSlices(tc.contentType, strings.NewReader(tc.body))); errs != 1 || after != 0 {
			t.Errorf("slice stream %q: %d errors, %d elements after the first; want exactly one error, last", tc.name, errs, after)
		}
	}
	for _, tc := range malformedEventStreams {
		if errs, after := drain(ReadEvents(strings.NewReader(tc.body))); errs != 1 || after != 0 {
			t.Errorf("event stream %q: %d errors, %d elements after the first; want exactly one error, last", tc.name, errs, after)
		}
	}
}

// A slice part is handed out as soon as its Content-Length bytes are in:
// slice 0 is read whole while slice 1 — whose opening writes slice 0's
// closing delimiter — has not been written.
func TestReadSlicesYieldsPartBeforeNextExists(t *testing.T) {
	slice0 := SlicePart{Z: 0, Total: 2, Payload: []byte(rawSlice(4, 4, 4*16))}
	pr, pw := io.Pipe()
	defer pr.Close()
	sw := NewSliceWriter(pw)
	parts := make(chan SlicePart, 3)
	go func() {
		defer close(parts)
		for p, err := range ReadSlices(sw.ContentType(), pr) {
			if err != nil {
				return
			}
			parts <- p
		}
	}()
	if err := sw.WriteSlice(slice0); err != nil { // returns once the reader took every byte
		t.Fatal(err)
	}
	select {
	case p := <-parts:
		if !reflect.DeepEqual(p, slice0) {
			t.Fatalf("first part %+v, want %+v", p, slice0)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slice 0 was not handed out before slice 1 was written")
	}
	go func() {
		slice1 := slice0
		slice1.Z = 1
		if sw.WriteSlice(slice1) == nil && sw.WriteEnd(goldenView) == nil && sw.Close() == nil {
			pw.Close()
		}
	}()
	n := 0
	for range parts {
		n++
	}
	if n != 2 {
		t.Fatalf("%d parts after slice 0, want slice 1 and the closing view", n)
	}
}

// A hostile length reserves at most maxPrealloc ahead of the bytes that
// arrive: a W×H image header past the int range or of 16 GiB costs nothing
// beyond the bytes it came with, and a Content-Length of 1 TiB no more than
// the cap before the stream runs out.
func TestSizedPartPreallocCapped(t *testing.T) {
	for _, body := range []string{
		slicePartWire(plainSliceHeaders, "\xff\xff\xff\xff\xff\xff\xff\xff"+strings.Repeat("\x00", 1024)),
		slicePartWire(plainSliceHeaders, "\xff\xff\x00\x00\xff\xff\x00\x00"+strings.Repeat("\x00", 1024)),
		unsizedPartWire("Content-Length: 1099511627776\r\n"+plainSliceHeaders, "\xff\xff\x00\x00\xff\xff\x00\x00"+strings.Repeat("\x00", 1024)),
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		errs, after := drain(ReadSlices(goldenContentType, strings.NewReader(body)))
		runtime.ReadMemStats(&m1)
		if errs != 1 || after != 0 {
			t.Fatalf("part %.60q: %d errors, %d elements after; want one error, last", body, errs, after)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got > maxPrealloc+64<<10 {
			t.Errorf("part %.60q: the reader allocated %d bytes, cap %d", body, got, maxPrealloc)
		}
	}
}

// drain consumes a codec sequence and counts the errors it held and the
// elements that followed the first of them.
func drain[T any](seq iter.Seq2[T, error]) (errs, after int) {
	for _, err := range seq {
		if errs > 0 {
			after++
		}
		if err != nil {
			errs++
		}
	}
	return errs, after
}

// A slice stream cut anywhere never hands out a part it did not receive
// whole: what is yielded before the cut is a prefix of the real parts, bit
// for bit.
func TestSliceStreamCutAnywhere(t *testing.T) {
	for n := 0; n < len(goldenStream); n++ {
		var got []SlicePart
		for p, err := range ReadSlices(goldenContentType, strings.NewReader(goldenStream[:n])) {
			if err == nil {
				got = append(got, p)
			}
		}
		if len(got) > len(goldenParts) || len(got) > 0 && !reflect.DeepEqual(got, goldenParts[:len(got)]) {
			t.Fatalf("cut at byte %d of %d: decoded %d parts that are not a prefix of the stream", n, len(goldenStream), len(got))
		}
	}
}

// FuzzReadEvents: whatever the bytes, the reader never panics, an error ends
// the sequence, and every event it does yield survives the framer — written
// back and read again it is the same event.
func FuzzReadEvents(f *testing.F) {
	f.Add([]byte(goldenEventFrame))
	for _, tc := range malformedEventStreams {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		failed := false
		for e, err := range ReadEvents(bytes.NewReader(body)) {
			if failed {
				t.Fatal("element yielded after an error")
			}
			if failed = err != nil; failed {
				continue
			}
			var buf bytes.Buffer
			if err := WriteEvent(&buf, e); err != nil {
				t.Fatalf("WriteEvent(%+v): %v", e, err)
			}
			for back, err := range ReadEvents(&buf) {
				if err != nil || back != e {
					t.Fatalf("event %+v came back as %+v (%v)", e, back, err)
				}
			}
		}
	})
}

// FuzzSliceReader: whatever the bytes, the reader never panics, an error
// ends the sequence, every part it yields is either a closing view or an
// in-range slice of a non-empty image, and every part survives the writer.
func FuzzSliceReader(f *testing.F) {
	f.Add(goldenContentType, []byte(goldenStream))
	for _, tc := range malformedSliceStreams {
		f.Add(tc.contentType, []byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, contentType string, body []byte) {
		failed := false
		for p, err := range ReadSlices(contentType, bytes.NewReader(body)) {
			if failed {
				t.Fatal("element yielded after an error")
			}
			if failed = err != nil; failed {
				continue
			}
			var buf bytes.Buffer
			sw := NewSliceWriter(&buf)
			if p.End != nil {
				err = sw.WriteEnd(*p.End)
			} else if p.Z < 0 || p.Z >= p.Total || p.Factor < 0 {
				t.Fatalf("out-of-range part handed out: z=%d total=%d factor=%d", p.Z, p.Total, p.Factor)
			} else if len(p.Payload) <= 8 {
				t.Fatalf("slice part with an empty image handed out: %d bytes", len(p.Payload))
			} else {
				err = sw.WriteSlice(p)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			for back, err := range ReadSlices(sw.ContentType(), &buf) {
				if err != nil || !reflect.DeepEqual(back, p) {
					t.Fatalf("part %+v came back as %+v (%v)", p, back, err)
				}
			}
		}
	})
}
