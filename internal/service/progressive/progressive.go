// Package progressive is the service-side home of the coarse-to-fine quality
// knob: parsing and semantics of the v1 Spec's quality field, the cache-key
// derivation that keeps preview results from ever aliasing full-resolution
// entries, and the runner that executes the preview tier (internal/ct/preview)
// against the service's staged PFS datasets.
package progressive

import (
	"context"
	"fmt"
	"strconv"

	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/preview"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
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
// cache, in the PFS spill tier, and in the router's rendezvous placement —
// which also means preview jobs hash to their own backend instead of warming
// the full-resolution key's cache shard. The derivation is a pure function
// of (full key, factor), so journal replay re-derives it bit-identically.
func PreviewKey(fullKey string, factor int) string {
	return fullKey + ".p" + strconv.Itoa(factor)
}

// Runner executes preview builds for the service: projections come from the
// staged dataset on the PFS.
type Runner struct {
	Store   *pfs.PFS
	Workers int
}

// Build reconstructs the plan's preview volume from the staged dataset at
// inputPrefix. It is deterministic for a given (plan, dataset, window):
// always the block-mean decimation of the staged full-resolution
// projections, so crash-replayed jobs rebuild byte-identical previews.
func (r *Runner) Build(ctx context.Context, plan preview.Plan, inputPrefix string, win filter.Window) (*volume.Volume, preview.Timings, error) {
	return plan.Reconstruct(ctx, func(dst *volume.Image, s int) error {
		_, err := r.Store.ReadProjectionInto(dst, inputPrefix, s)
		return err
	}, preview.Options{Workers: r.Workers, Window: win})
}
