package obs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// Span is one timed operation inside a trace. IDs are opaque hex strings
// (W3C trace-context sized: 16-byte trace IDs, 8-byte span IDs); Parent
// links the span into the tree, and a parent ID that no span of the trace
// carries marks a root (e.g. a client-side span the fleet never saw).
type Span struct {
	SpanID string
	Parent string
	Name   string
	Start  time.Time
	End    time.Time // zero while the operation is still in flight
	Attrs  []Attr
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// Duration is the span's elapsed time, zero while still open.
func (s Span) Duration() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// DeriveSpanID returns a deterministic 8-byte hex span ID for a named
// operation inside a trace. Deterministic derivation keeps span IDs stable
// across repeated assemblies of the same trace (a mid-run GET and one after
// the job settles agree), without storing ID state per span.
func DeriveSpanID(traceID, name string) string {
	sum := sha256.Sum256([]byte(traceID + "\x00" + name))
	return hex.EncodeToString(sum[:8])
}

// seed mixes the process start time into derived randomness-free IDs.
var idSeq atomic.Uint64

func init() {
	idSeq.Store(uint64(time.Now().UnixNano()))
}

// NewTraceID returns a 16-byte hex trace ID. IDs only need to be unique,
// not unpredictable, so they are derived by hashing a process-local
// sequence seeded from the clock — no crypto/rand syscall on the job path.
func NewTraceID() string {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], idSeq.Add(1))
	binary.BigEndian.PutUint64(buf[8:], uint64(time.Now().UnixNano()))
	sum := sha256.Sum256(buf[:])
	return hex.EncodeToString(sum[:16])
}

// NewSpanID returns an 8-byte hex span ID.
func NewSpanID() string {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], idSeq.Add(1))
	binary.BigEndian.PutUint64(buf[8:], uint64(time.Now().UnixNano())^0x9e3779b97f4a7c15)
	sum := sha256.Sum256(buf[:])
	return hex.EncodeToString(sum[:8])
}
