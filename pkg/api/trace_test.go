package api

import (
	"regexp"
	"strings"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(tid) {
		t.Fatalf("trace ID %q is not 32 hex chars", tid)
	}
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(sid) {
		t.Fatalf("span ID %q is not 16 hex chars", sid)
	}
	hdr := FormatTraceParent(tid, sid)
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q is not version 00 / sampled", hdr)
	}
	gotT, gotS, err := ParseTraceParent(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if gotT != tid || gotS != sid {
		t.Fatalf("round trip: got (%s, %s), want (%s, %s)", gotT, gotS, tid, sid)
	}
}

func TestIDsUnique(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{32}$`)
	hex8 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id, sid := NewTraceID(), NewSpanID()
		if !hex16.MatchString(id) {
			t.Fatalf("trace ID %q is not 32 hex chars", id)
		}
		if !hex8.MatchString(sid) {
			t.Fatalf("span ID %q is not 16 hex chars", sid)
		}
		if seen[id] || seen[sid] {
			t.Fatalf("duplicate ID among %q, %q", id, sid)
		}
		seen[id], seen[sid] = true, true
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"nonsense",
		"00-short-abcdefabcdefabcd-01",
		"00-" + strings.Repeat("0", 32) + "-abcdefabcdefabcd-01",                // all-zero trace
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // all-zero span
		"00-" + strings.Repeat("g", 32) + "-abcdefabcdefabcd-01",                // not hex
	} {
		if _, _, err := ParseTraceParent(bad); err == nil {
			t.Errorf("ParseTraceParent(%q) accepted", bad)
		}
	}
	// Future versions and trailing fields are tolerated.
	tid, sid := NewTraceID(), NewSpanID()
	if _, _, err := ParseTraceParent("cc-" + tid + "-" + sid + "-01-extra"); err != nil {
		t.Errorf("future-version traceparent rejected: %v", err)
	}
}

// FuzzParseTraceParent: whatever the header, the parser never panics; the
// IDs it accepts are lowercase hex of the W3C lengths (32 and 16 digits) and
// not all zero; and the header FormatTraceParent renders from them parses
// back to the same IDs.
func FuzzParseTraceParent(f *testing.F) {
	tid, sid := "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	f.Add(FormatTraceParent(tid, sid))
	f.Add("00-" + strings.ToUpper(tid) + "-" + strings.ToUpper(sid) + "-01")
	f.Add("  cc-" + tid + "-" + sid + "-01-extra\t")
	f.Add("00-" + tid + "-" + sid)
	f.Add("00-" + strings.Repeat("0", 32) + "-" + sid + "-01")
	f.Add("00-" + tid + "-" + strings.Repeat("0", 16) + "-01")
	f.Add("00-" + tid[:31] + "g-" + sid + "-01")
	f.Add("00-" + tid + "0-" + sid + "-01")
	f.Add("---")
	f.Add("")
	lowerHex := regexp.MustCompile(`^[0-9a-f]+$`)
	f.Fuzz(func(t *testing.T, header string) {
		traceID, spanID, err := ParseTraceParent(header)
		if err != nil {
			if traceID != "" || spanID != "" {
				t.Fatalf("%q: error %v with IDs (%q, %q)", header, err, traceID, spanID)
			}
			return
		}
		for _, id := range []struct {
			name, v string
			n       int
		}{{"trace", traceID, 32}, {"span", spanID, 16}} {
			if len(id.v) != id.n || !lowerHex.MatchString(id.v) || strings.Trim(id.v, "0") == "" {
				t.Fatalf("%q: accepted %s id %q", header, id.name, id.v)
			}
		}
		again, spanAgain, err := ParseTraceParent(FormatTraceParent(traceID, spanID))
		if err != nil || again != traceID || spanAgain != spanID {
			t.Fatalf("%q: round trip gave (%q, %q, %v), want (%q, %q)", header, again, spanAgain, err, traceID, spanID)
		}
	})
}
