package obs

import (
	"crypto/sha256"
	"encoding/hex"
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
