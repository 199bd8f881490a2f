package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"ifdk/internal/core"
	"ifdk/internal/ct/geometry"
)

// A reconstruction is a pure function of its projections, its geometry, its
// ramp window and its R×C grid (Sec. 4, Eq. 5), so those are what a job's
// keys name. resolveSpec derives all three — the dataset prefix, the result
// key and the preview key — from keyV1, and nothing else reaches a hash.

// keyV1 is version 1 of the identity encoding: every result key and dataset
// prefix is the SHA-256 of its JSON, so its JSON names, their order and
// their types are the encoding. A change here moves every key, misses every
// cache and reroutes the fleet; it needs a keyV2, not an edit. Because it
// names each field it hashes, a field added to or deleted from core.Config
// moves no key.
type keyV1 struct {
	R, C        int
	Geometry    geometryV1
	Window      int // filter.Window's value
	InputPrefix string
	// The last two fields keep the JSON of the core.Config these keys were
	// first hashed from, so every key stayed byte-identical: OutputPrefix
	// is always "", and Result, named AssembleVolume there, is true in a
	// result key and false in a dataset prefix.
	OutputPrefix string
	Result       bool `json:"AssembleVolume"`
}

// geometryV1 spells out geometry.Params field by field. The conversion
// geometryV1(g) compiles only while the two declare the same fields in the
// same order, so a geometry field added, renamed or retyped has to be
// brought here on purpose.
type geometryV1 struct {
	Np         int
	Nu, Nv     int
	Du, Dv     float64
	SAD        float64
	SDD        float64
	Nx, Ny, Nz int
	Dx, Dy, Dz float64
}

// sum is the SHA-256 hex of k's JSON. Marshal fails only on a non-finite
// geometry float, which admission never produces; rather than hash some
// fallback that would silently fork the keyspace across the fleet, such a
// key panics.
func (k keyV1) sum() string {
	blob, err := json.Marshal(k)
	if err != nil {
		panic(fmt.Sprintf("service: key is not canonically encodable (non-finite geometry?): %v", err))
	}
	s := sha256.Sum256(blob)
	return hex.EncodeToString(s[:])
}

// resultKey is the full-resolution result key of a run: its grid, geometry,
// window and dataset prefix. How the run delivers its volume (the output
// prefix, the assembly and the hooks) is not part of what the volume is.
func resultKey(cfg core.Config) string {
	return keyV1{R: cfg.R, C: cfg.C, Geometry: geometryV1(cfg.Geometry), Window: int(cfg.Window),
		InputPrefix: cfg.InputPrefix, Result: true}.sum()
}

// datasetPrefix content-addresses a staged scan: jobs with the same phantom
// and geometry share one projection set on the PFS, ds/<hash>.
func datasetPrefix(phantom string, g geometry.Params) string {
	return "ds/" + keyV1{Geometry: geometryV1(g), InputPrefix: phantom}.sum()[:16]
}

// previewKey is the result key of the preview tier decimated by factor.
// Result keys are 64 hex digits, so the suffixed form never collides with
// one: a preview (a coarse volume) never aliases a full-resolution entry, in
// the cache or in the router's rendezvous placement, which also sends
// preview jobs to their own backend instead of warming the full key's
// shard. It is a pure function of its inputs, so journal replay re-derives
// it bit for bit.
func previewKey(fullKey string, factor int) string {
	return fullKey + ".p" + strconv.Itoa(factor)
}
