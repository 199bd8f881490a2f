package obs

import (
	"regexp"
	"testing"
	"time"
)

func TestIDs(t *testing.T) {
	hex16 := regexp.MustCompile(`^[0-9a-f]{32}$`)
	hex8 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if !hex16.MatchString(id) {
			t.Fatalf("trace ID %q is not 32 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
		sid := NewSpanID()
		if !hex8.MatchString(sid) {
			t.Fatalf("span ID %q is not 16 hex chars", sid)
		}
	}
	if DeriveSpanID("t", "filter") != DeriveSpanID("t", "filter") {
		t.Error("DeriveSpanID is not deterministic")
	}
	if DeriveSpanID("t", "filter") == DeriveSpanID("t", "gather") {
		t.Error("DeriveSpanID collides across names")
	}
	if !hex8.MatchString(DeriveSpanID("t", "filter")) {
		t.Error("DeriveSpanID is not 16 hex chars")
	}
}

func TestSpanDuration(t *testing.T) {
	s := Span{Start: time.Unix(0, 0)}
	if s.Duration() != 0 {
		t.Error("open span should report zero duration")
	}
	s.End = s.Start.Add(3 * time.Second)
	if s.Duration() != 3*time.Second {
		t.Errorf("duration = %v, want 3s", s.Duration())
	}
}
