package obs

import (
	"regexp"
	"testing"
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
