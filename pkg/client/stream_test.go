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

// TestTierRefusals: the exactly-once assembler under both of Stream's tiers
// accepts every part of a row but the last, and refuses the last with an
// error — never a panic or a silent overwrite.
func TestTierRefusals(t *testing.T) {
	img := func(w, h int) []byte { return volume.AppendImage(nil, volume.NewImage(w, h)) }
	part := func(z, total int, payload []byte) api.SlicePart {
		return api.SlicePart{Z: z, Total: total, Payload: payload}
	}
	for _, c := range []struct {
		name  string
		parts []api.SlicePart
	}{
		{"delivered twice", []api.SlicePart{part(1, 4, img(2, 2)), part(1, 4, img(2, 2))}},
		{"z equals the first total", []api.SlicePart{part(0, 2, img(2, 2)), part(2, 3, img(2, 2))}},
		{"z beyond the first total", []api.SlicePart{part(0, 2, img(2, 2)), part(5, 6, img(2, 2))}},
		{"second part another size", []api.SlicePart{part(0, 4, img(2, 2)), part(1, 4, img(3, 3))}},
		{"second part transposed", []api.SlicePart{part(0, 4, img(4, 1)), part(1, 4, img(1, 4))}},
		{"first payload shorter than its header", []api.SlicePart{part(0, 4, []byte{2, 0, 0, 0})}},
		{"later payload shorter than its header", []api.SlicePart{part(0, 4, img(2, 2)), part(1, 4, []byte{2, 0, 0, 0, 2})}},
		{"first header disagrees with its length", []api.SlicePart{part(0, 4, img(2, 2)[:8+12])}},
		{"later header disagrees with its length", []api.SlicePart{part(0, 4, img(2, 2)), part(1, 4, append(img(2, 2), 0, 0, 0, 0))}},
		{"first header reads 0x4", []api.SlicePart{part(0, 4, []byte{0, 0, 0, 0, 4, 0, 0, 0})}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := tier{name: "slice"}
			last := len(c.parts) - 1
			for i, p := range c.parts[:last] {
				if err := tr.add(p); err != nil {
					t.Fatalf("part %d refused: %v", i, err)
				}
			}
			err := tr.add(c.parts[last])
			if err == nil {
				t.Fatal("last part accepted")
			}
			t.Log(err)
		})
	}
}
