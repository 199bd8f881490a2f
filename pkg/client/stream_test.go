package client

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// TestStreamDecodeAllocs: a plain slice part costs the process one buffer
// the size of its payload, read by the size its header gives and decoded
// in place into the volume's plane. Measured between the first and the
// last slice hook, so the volume itself (allocated at the first part) is
// out of the window and the daemon's own encoding is in it.
func TestStreamDecodeAllocs(t *testing.T) {
	const n, nz = 128, 64
	want := volume.New(n, n, nz, volume.IMajor)
	for i := range want.Data {
		want.Data[i] = float32(i%997) - 498.5
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		sw := api.NewSliceWriter(w)
		w.Header().Set("Content-Type", sw.ContentType())
		var buf []byte
		for z := 0; z < nz; z++ {
			buf = volume.AppendImage(buf[:0], &volume.Image{W: n, H: n, Data: want.Data[z*n*n : (z+1)*n*n]})
			if sw.WriteSlice(api.SlicePart{Z: z, Total: nz, Payload: buf}) != nil {
				return
			}
		}
		if sw.WriteEnd(api.View{ID: r.PathValue("id"), State: api.StateDone}) == nil {
			_ = sw.Close()
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var first, last runtime.MemStats
	res, err := New(ts.URL).Stream(testCtx(t), "j00000001", func(z, total int) {
		switch z {
		case 0:
			runtime.ReadMemStats(&first)
		case total - 1:
			runtime.ReadMemStats(&last)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if d, err := volume.MaxAbsDiff(want, res.Volume); err != nil || d != 0 {
		t.Fatalf("streamed volume differs: maxAbsDiff=%g err=%v", d, err)
	}
	perPart := float64(last.TotalAlloc-first.TotalAlloc) / (nz - 1)
	payload := float64(8 + 4*n*n)
	t.Logf("%.0f bytes allocated per part, %.2f× its %.0f-byte payload", perPart, perPart/payload, payload)
	if perPart > 1.25*payload {
		t.Fatalf("%.0f bytes allocated per slice part, budget 1.25 × %.0f", perPart, payload)
	}
}
