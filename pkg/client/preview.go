package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// Preview fetches GET /v1/jobs/{id}/preview — a preview or progressive
// job's coarse tier as one multipart response — and reassembles it into a
// volume, returning the decimation factor alongside. The server answers
// not_yet_written (retryable *api.Error) while the preview phase is still
// running; WatchPreview waits for the preview event instead of polling.
func (c *Client) Preview(ctx context.Context, id string) (*volume.Volume, int, error) {
	resp, err := c.Open(ctx, http.MethodGet, "/v1/jobs/"+id+"/preview", nil, nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()

	t := tier{name: "preview slice"}
	for p, err := range api.ReadSlices(resp.Header.Get("Content-Type"), resp.Body) {
		if err != nil {
			return nil, 0, fmt.Errorf("client: preview of %s: %w", id, err)
		}
		if p.Factor < 1 {
			return nil, 0, fmt.Errorf("client: preview of %s: part without a %s header", id, api.HeaderPreviewFactor)
		}
		if err := t.add(p); err != nil {
			return nil, 0, err
		}
	}
	if t.vol == nil {
		return nil, 0, fmt.Errorf("client: preview of %s carried no slices", id)
	}
	if t.got != t.vol.Nz {
		return nil, 0, fmt.Errorf("client: preview of %s truncated: %d/%d slices", id, t.got, t.vol.Nz)
	}
	return t.vol, t.factor, nil
}

// errPreviewReady aborts the event watch once the preview event arrives.
var errPreviewReady = errors.New("preview ready")

// WatchPreview blocks until the job's preview tier exists — following the
// event stream for the preview event rather than polling — then fetches and
// returns it with its decimation factor. Event replay makes it safe to call
// at any point in the job's life, including after completion. A job that
// reaches a terminal state without ever announcing a preview (quality
// "full", or a failure before the preview phase) returns an error.
func (c *Client) WatchPreview(ctx context.Context, id string) (*volume.Volume, int, error) {
	state, err := c.Watch(ctx, id, func(e api.Event) error {
		if e.Type == api.EventPreview {
			return errPreviewReady
		}
		return nil
	})
	switch {
	case errors.Is(err, errPreviewReady):
		return c.Preview(ctx, id)
	case err != nil:
		return nil, 0, err
	default:
		return nil, 0, fmt.Errorf("client: job %s reached %s without a preview event", id, state)
	}
}
