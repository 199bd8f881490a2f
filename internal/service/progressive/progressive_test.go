package progressive

import (
	"strings"
	"testing"
)

func TestParseQuality(t *testing.T) {
	cases := []struct {
		in      string
		want    Quality
		wantErr bool
	}{
		{"", Full, false}, // wire compatibility: absent field means full
		{"full", Full, false},
		{"preview", Preview, false},
		{"progressive", Progressive, false},
		{"4k", Full, true},
		{"Full", Full, true}, // the contract is case-sensitive
	}
	for _, c := range cases {
		q, err := ParseQuality(c.in)
		if (err != nil) != c.wantErr || q != c.want {
			t.Fatalf("ParseQuality(%q) = %v, %v; want %v, err=%v", c.in, q, err, c.want, c.wantErr)
		}
	}
}

func TestQualitySemantics(t *testing.T) {
	for _, c := range []struct {
		q             Quality
		str           string
		preview, full bool
	}{
		{Full, "full", false, true},
		{Preview, "preview", true, false},
		{Progressive, "progressive", true, true},
	} {
		if c.q.String() != c.str {
			t.Fatalf("%v.String() = %q, want %q", c.q, c.q.String(), c.str)
		}
		if c.q.WantsPreview() != c.preview || c.q.WantsFull() != c.full {
			t.Fatalf("%v: WantsPreview=%v WantsFull=%v, want %v/%v",
				c.q, c.q.WantsPreview(), c.q.WantsFull(), c.preview, c.full)
		}
	}
}

// PreviewKey's suffixed form must be structurally unable to collide with a
// full-resolution key (64-char SHA-256 hex) and must stay a pure function
// of its inputs — journal replay re-derives it bit-identically.
func TestPreviewKeyShape(t *testing.T) {
	full := strings.Repeat("ab", 32)
	k := PreviewKey(full, 4)
	if k != full+".p4" {
		t.Fatalf("PreviewKey = %q", k)
	}
	if len(k) == len(full) {
		t.Fatal("preview key has full-key length: could alias a full entry")
	}
	if PreviewKey(full, 2) == k {
		t.Fatal("factor does not separate preview keys")
	}
}
