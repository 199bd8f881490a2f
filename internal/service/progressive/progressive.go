// Package progressive is the service-side home of the coarse-to-fine quality
// knob: parsing and semantics of the v1 Spec's quality field, and the
// cache-key derivation that keeps preview results from ever aliasing
// full-resolution entries. The service's Manager runs the preview tier
// itself (internal/ct/preview) against its staged PFS datasets.
package progressive

import (
	"fmt"
	"strconv"

	"ifdk/pkg/api"
)

// Quality is the resolved tier of a Spec's quality knob.
type Quality int

const (
	// Full is the default: one full-resolution reconstruction.
	Full Quality = iota
	// Preview reconstructs only the decimated preview volume.
	Preview
	// Progressive builds the preview first, streams it, then refines to
	// full resolution under the same job ID.
	Progressive
)

// ParseQuality resolves a Spec's quality field. The empty string is Full
// (wire compatibility: pre-quality Specs are full-quality Specs); anything
// unrecognized is an invalid-spec error.
func ParseQuality(s string) (Quality, error) {
	switch s {
	case "", api.QualityFull:
		return Full, nil
	case api.QualityPreview:
		return Preview, nil
	case api.QualityProgressive:
		return Progressive, nil
	default:
		return Full, fmt.Errorf("unknown quality %q (want %s, %s or %s)",
			s, api.QualityFull, api.QualityPreview, api.QualityProgressive)
	}
}

// String returns the wire form of the tier.
func (q Quality) String() string {
	switch q {
	case Preview:
		return api.QualityPreview
	case Progressive:
		return api.QualityProgressive
	default:
		return api.QualityFull
	}
}

// WantsPreview reports whether the tier builds a decimated preview volume.
func (q Quality) WantsPreview() bool { return q == Preview || q == Progressive }

// WantsFull reports whether the tier runs the full-resolution pipeline.
func (q Quality) WantsFull() bool { return q == Full || q == Progressive }

// PreviewKey derives the result-cache key of the preview tier from the
// full-resolution key. Full keys are SHA-256 hex, so the suffixed form can
// never collide with any full-resolution key: a preview entry (a coarse
// volume) is structurally unable to alias a full-resolution entry, in the
// cache and in the router's rendezvous placement — which also means preview
// jobs hash to their own backend instead of warming the full-resolution
// key's cache shard. The derivation is a pure function of (full key,
// factor), so journal replay re-derives it bit-identically.
func PreviewKey(fullKey string, factor int) string {
	return fullKey + ".p" + strconv.Itoa(factor)
}
