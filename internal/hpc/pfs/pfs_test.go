package pfs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ifdk/pkg/volume"
)

func testCfg() Config {
	return Config{ReadBW: 1e9, WriteBW: 5e8}
}

func TestWriteReadRoundTrip(t *testing.T) {
	p := New(testCfg())
	data := []byte("hello pfs")
	if _, err := p.Write("a/b", data); err != nil {
		t.Fatal(err)
	}
	got, _, err := p.Peek("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("got %q", got)
	}
}

func TestWriteCopiesInput(t *testing.T) {
	p := New(testCfg())
	data := []byte{1, 2, 3}
	if _, err := p.Write("x", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 9
	got, _, _ := p.Peek("x")
	if got[0] != 1 {
		t.Error("Write aliases caller data")
	}
}

func TestReadMissing(t *testing.T) {
	p := New(testCfg())
	if _, _, err := p.Peek("nope"); err == nil {
		t.Error("missing object should error")
	}
}

func TestEmptyPathRejected(t *testing.T) {
	p := New(testCfg())
	if _, err := p.Write("", nil); err == nil {
		t.Error("empty path accepted")
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	p := New(testCfg())
	p.Write("k", []byte{1})
	p.Write("k", []byte{2, 3})
	if got, _, _ := p.Peek("k"); len(got) != 2 {
		t.Errorf("size after overwrite = %d", len(got))
	}
	p.Delete("k")
	if p.Exists("k") {
		t.Error("object survived Delete")
	}
	if _, _, err := p.Peek("k"); err == nil {
		t.Error("deleted object still readable")
	}
	p.Delete("k") // idempotent
}

func TestListPrefix(t *testing.T) {
	p := New(testCfg())
	for _, k := range []string{"in/b", "in/a", "out/c"} {
		p.Write(k, nil)
	}
	got := p.List("in/")
	if len(got) != 2 || got[0] != "in/a" || got[1] != "in/b" {
		t.Errorf("List = %v", got)
	}
	if n := len(p.List("")); n != 3 {
		t.Errorf("List(\"\") returned %d", n)
	}
}

func TestSimulatedDurationScalesWithSize(t *testing.T) {
	cfg := testCfg()
	p := New(cfg)
	for _, n := range []int{0, 1, 512, 4 << 10, 40 << 10, 3<<20 + 7} {
		want := time.Duration(float64(n) / cfg.WriteBW * float64(time.Second))
		if d, _ := p.Write("o", make([]byte, n)); d != want {
			t.Errorf("write %d B: %v, want %v", n, d, want)
		}
		want = time.Duration(float64(n) / cfg.ReadBW * float64(time.Second))
		if _, d, _ := p.Peek("o"); d != want {
			t.Errorf("read %d B: %v, want %v", n, d, want)
		}
	}
}

func TestThrottleSleepsDuration(t *testing.T) {
	p := New(Config{ReadBW: 1e6, WriteBW: 2e6, Throttle: true})
	data := make([]byte, 20000) // 10 ms to write, 20 ms to read
	start := time.Now()
	d, err := p.Write("o", data)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); d != 10*time.Millisecond || el < d {
		t.Errorf("write returned %v after %v, want 10ms and a sleep at least that long", d, el)
	}
	start = time.Now()
	_, d, err = p.Peek("o")
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); d != 20*time.Millisecond || el < d {
		t.Errorf("read returned %v after %v, want 20ms and a sleep at least that long", d, el)
	}
}

func TestStats(t *testing.T) {
	p := New(testCfg())
	p.Write("a", make([]byte, 100))
	p.Write("b", make([]byte, 50))
	p.Peek("a")
	s := p.Stats()
	if s.BytesWritten != 150 || s.Writes != 2 {
		t.Errorf("write stats %+v", s)
	}
	if s.BytesRead != 100 || s.Reads != 1 {
		t.Errorf("read stats %+v", s)
	}
	if s.Objects != 2 || s.Bytes != 150 {
		t.Errorf("objects = %d holding %d B, want 2 holding 150 B", s.Objects, s.Bytes)
	}
	// Held bytes follow the stored payloads: an overwrite counts its new
	// size only, and a delete (of a present or an absent path) gives back
	// exactly what was held.
	p.Write("a", make([]byte, 30))
	p.Delete("b")
	p.Delete("nope")
	if s := p.Stats(); s.Bytes != 30 || s.BytesWritten != 180 {
		t.Errorf("after overwrite and delete: held %d B, written %d B; want 30 and 180", s.Bytes, s.BytesWritten)
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := New(testCfg())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d/o%d", w, i)
				if _, err := p.Write(key, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				got, _, err := p.Peek(key)
				if err != nil || got[0] != byte(i) {
					t.Errorf("read back %v, %v", got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if p.Stats().Objects != 400 {
		t.Errorf("objects = %d", p.Stats().Objects)
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	p := New(testCfg())
	img := volume.NewImage(8, 6)
	for n := range img.Data {
		img.Data[n] = float32(n)
	}
	if _, err := p.WriteProjection("ds", 3, img); err != nil {
		t.Fatal(err)
	}
	got, _, err := p.ReadProjection("ds", 3)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := volume.ImageRMSE(img, got)
	if r != 0 {
		t.Errorf("projection round trip rmse = %g", r)
	}
	if _, _, err := p.ReadProjection("ds", 4); err == nil {
		t.Error("missing projection should error")
	}
}

func TestVolumeSliceRoundTrip(t *testing.T) {
	p := New(testCfg())
	vol := volume.New(6, 5, 4, volume.IMajor)
	for n := range vol.Data {
		vol.Data[n] = float32(n % 31)
	}
	if _, err := p.WriteVolumeSlices("out/vol", vol); err != nil {
		t.Fatal(err)
	}
	if got := len(p.List("out/vol/")); got != 4 {
		t.Fatalf("stored %d slices", got)
	}
	back, _, err := p.ReadVolumeSlices("out/vol", 6, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := volume.RMSE(vol, back)
	if r != 0 {
		t.Errorf("volume round trip rmse = %g", r)
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := New(Config{})
	// Both default bandwidths are 1e9 bytes/s: a nanosecond per byte.
	if d, _ := p.Write("o", make([]byte, 1000)); d != time.Microsecond {
		t.Errorf("default write of 1000 B = %v", d)
	}
	if _, d, _ := p.Peek("o"); d != time.Microsecond {
		t.Errorf("default read of 1000 B = %v", d)
	}
}
