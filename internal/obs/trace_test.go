package obs

import (
	"regexp"
	"testing"
	"time"
)

func TestIDs(t *testing.T) {
	hex8 := regexp.MustCompile(`^[0-9a-f]{16}$`)
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
