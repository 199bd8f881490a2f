// Package compress carries opaque wire blobs — the slice parts of
// GET /v1/jobs/{id}/stream and /preview — under per-part Content-Encoding:
// gzip. Slice payloads are smooth float32 rasters whose byte planes repeat
// heavily, so DEFLATE recovers a sizeable fraction without quantization —
// and stays bit-exact, which the streaming contract requires (a reassembled
// volume must equal the job's result).
package compress

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// Gzip compresses data with DEFLATE at the default level.
func Gzip(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	if _, err := gw.Write(data); err != nil {
		return nil, fmt.Errorf("compress: gzip: %w", err)
	}
	if err := gw.Close(); err != nil {
		return nil, fmt.Errorf("compress: gzip: %w", err)
	}
	return buf.Bytes(), nil
}

// Gunzip reverses Gzip.
func Gunzip(data []byte) ([]byte, error) {
	gr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("compress: gunzip: %w", err)
	}
	defer gr.Close()
	out, err := io.ReadAll(gr)
	if err != nil {
		return nil, fmt.Errorf("compress: gunzip: %w", err)
	}
	return out, nil
}
