package client

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"

	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// StreamResult is the outcome of consuming one job's slice stream to its
// terminal part.
type StreamResult struct {
	Volume   *volume.Volume // the reassembled full volume (axial z-slices)
	Final    api.View       // the job's terminal view from the closing part
	Slices   int            // slice parts received (== Volume.Nz on success)
	RawBytes int64          // slice payload bytes received, both tiers

	// Progressive jobs lead the stream with their coarse tier (parts marked
	// X-Preview-Factor, indexed on the coarse grid). It reassembles here,
	// separate from Volume — previews refine, they never overwrite.
	Preview       *volume.Volume
	PreviewFactor int // decimation factor of the preview parts (0: none seen)
	PreviewSlices int // preview parts received (== Preview.Nz when complete)
}

// StreamHooks are the per-part callbacks of StreamProgressive. Both run
// after the part is decoded; either may be nil.
type StreamHooks struct {
	// OnSlice fires per full-resolution slice part (z on the full grid).
	OnSlice func(z, total int)
	// OnPreview fires per coarse preview part (z on the coarse grid,
	// total the coarse slice count) — the hook for time-to-first-preview
	// measurements and early rendering.
	OnPreview func(z, total, factor int)
}

// Stream consumes GET /v1/jobs/{id}/stream — live slices mid-run, replayed
// slices on late attach, terminal JSON view last — and reassembles the
// parts into a volume with exactly-once accounting: a duplicated or
// malformed slice part fails the stream rather than silently overwriting,
// and a terminal part arriving before every slice landed reports which
// count was short. onSlice, when non-nil, runs after each slice part is
// decoded (z is the global slice index) — the hook for time-to-first-slice
// measurements and progressive rendering. Preview parts of a progressive
// job are reassembled into StreamResult.Preview; to observe them as they
// arrive, use StreamProgressive.
func (c *Client) Stream(ctx context.Context, id string, onSlice func(z, total int)) (*StreamResult, error) {
	return c.StreamProgressive(ctx, id, StreamHooks{OnSlice: onSlice})
}

// StreamProgressive is Stream with per-tier callbacks: OnPreview fires for
// each coarse part of a progressive job's leading tier, OnSlice for each
// full-resolution part. The server guarantees every preview part precedes
// the first full-resolution part, so OnPreview marks time-to-first-volume
// long before the stream completes.
func (c *Client) StreamProgressive(ctx context.Context, id string, hooks StreamHooks) (*StreamResult, error) {
	resp, err := c.Open(ctx, http.MethodGet, "/v1/jobs/"+id+"/stream", nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	full, prev := tier{name: "slice"}, tier{name: "preview slice"}
	var final *api.View
	for p, err := range api.ReadSlices(resp.Header.Get("Content-Type"), resp.Body) {
		if err != nil {
			return nil, fmt.Errorf("client: stream for %s: %w", id, err)
		}
		if p.End != nil {
			final = p.End
			break
		}
		if p.Factor > 0 {
			if err := prev.add(p); err != nil {
				return nil, err
			}
			if hooks.OnPreview != nil {
				hooks.OnPreview(p.Z, p.Total, p.Factor)
			}
			continue
		}
		if err := full.add(p); err != nil {
			return nil, err
		}
		if hooks.OnSlice != nil {
			hooks.OnSlice(p.Z, p.Total)
		}
	}
	if final == nil {
		return nil, fmt.Errorf("client: stream for %s ended without a terminal part", id)
	}
	res := &StreamResult{
		Volume: full.vol, Final: *final, Slices: full.got,
		RawBytes: full.raw + prev.raw,
		Preview:  prev.vol, PreviewFactor: prev.factor, PreviewSlices: prev.got,
	}
	if res.Final.State == api.StateDone {
		if res.Volume == nil {
			return nil, fmt.Errorf("client: job %s done but stream carried no slices", id)
		}
		if res.Slices != res.Volume.Nz {
			return nil, fmt.Errorf("client: job %s done but only %d/%d slices streamed", id, res.Slices, res.Volume.Nz)
		}
	}
	return res, nil
}

// tier reassembles the parts of one resolution tier (full or preview) into a
// volume with exactly-once accounting — the one assembler under Stream and
// StreamProgressive. A duplicated, out-of-range or undecodable
// part fails the stream rather than silently overwriting.
type tier struct {
	name   string // "slice" | "preview slice", for error text
	vol    *volume.Volume
	seen   []bool
	got    int   // distinct parts placed
	factor int   // decimation factor of the first part (0: full resolution)
	raw    int64 // payload bytes received
}

func (t *tier) add(p api.SlicePart) error {
	if t.vol == nil {
		// The first part's image header sizes the volume, so it is checked
		// first: ReadSlices passes a 0×H image, which volume.New refuses.
		// ImageFromBytesInto below checks every part against the volume.
		var w, h int
		if len(p.Payload) >= 8 {
			w, h = int(binary.LittleEndian.Uint32(p.Payload)), int(binary.LittleEndian.Uint32(p.Payload[4:]))
		}
		if _, err := volume.ImagePayload(p.Payload, w, h); err != nil {
			return fmt.Errorf("client: %s %d payload: %w", t.name, p.Z, err)
		}
		t.vol = volume.New(w, h, p.Total, volume.IMajor)
		t.seen = make([]bool, p.Total)
		t.factor = p.Factor
	}
	if p.Z >= len(t.seen) {
		return fmt.Errorf("client: %s index %d out of range [0,%d)", t.name, p.Z, len(t.seen))
	}
	if t.seen[p.Z] {
		return fmt.Errorf("client: %s %d delivered twice", t.name, p.Z)
	}
	n := t.vol.Nx * t.vol.Ny
	plane := &volume.Image{W: t.vol.Nx, H: t.vol.Ny, Data: t.vol.Data[p.Z*n : (p.Z+1)*n]}
	if err := volume.ImageFromBytesInto(plane, p.Payload); err != nil {
		return fmt.Errorf("client: %s %d payload: %w", t.name, p.Z, err)
	}
	t.seen[p.Z] = true
	t.got++
	t.raw += int64(len(p.Payload))
	return nil
}
