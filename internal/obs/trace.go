package obs

import (
	"crypto/sha256"
	"encoding/hex"
)

// DeriveSpanID returns a deterministic 8-byte hex span ID (W3C
// trace-context sized) for a named operation inside a trace. Deterministic
// derivation keeps span IDs stable across repeated assemblies of the same
// trace (a mid-run GET and one after the job settles agree), without
// storing ID state per span.
func DeriveSpanID(traceID, name string) string {
	sum := sha256.Sum256([]byte(traceID + "\x00" + name))
	return hex.EncodeToString(sum[:8])
}
