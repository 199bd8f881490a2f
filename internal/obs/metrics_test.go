package obs

import (
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden locks the text exposition format — names, HELP/TYPE
// metadata, label rendering, histogram bucket/sum/count lines — against a
// golden file. Run with -update-golden (via UPDATE_GOLDEN=1) after a
// deliberate format change.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ifdk_test_jobs_total", "Jobs processed.")
	c.Add(42)
	g := r.Gauge("ifdk_test_queue_depth", "Jobs queued right now.")
	g.Set(3)
	cv := r.CounterVec("ifdk_test_admission_total", "Admission decisions.", "decision")
	cv.With("admitted").Add(7)
	cv.With("rejected_full").Add(2)
	gv := r.GaugeVec("ifdk_test_backend_alive", "Backend liveness (1 = alive).", "backend")
	gv.With("b0").Set(1)
	gv.With("b1").Set(0)
	h := r.Histogram("ifdk_test_stage_seconds", "Per-stage latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	hv := r.HistogramVec("ifdk_test_wait_seconds", "Queue wait by class.", []float64{1, 10}, "class")
	hv.With("high").Observe(0.5)
	hv.With(`we"ird\cl` + "\n" + `ass`).Observe(20)
	r.GaugeFunc("ifdk_test_uptime_seconds", "Seconds since start.", func() float64 { return 12.5 })
	r.CounterFunc("ifdk_test_pfs_read_bytes_total", "Bytes read\nfrom the PFS.", func() float64 { return 1 << 20 })
	r.SampleFunc("ifdk_test_jobs", "Jobs by state.", TypeGauge, []string{"state"}, func() []Sample {
		return []Sample{{Labels: []string{"queued"}, Value: 2}, {Labels: []string{"running"}, Value: 1}}
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExpositionParses sanity-checks structural invariants every Prometheus
// scraper relies on: each sample line's metric name was declared by a
// preceding TYPE line, and histogram buckets are cumulative.
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(1)
	h := r.Histogram("lat_seconds", "lat", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var lastBucket int64 = -1
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			declared[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !declared[name] && !declared[base] {
			t.Errorf("sample %q has no TYPE declaration", line)
		}
		if strings.HasPrefix(line, "lat_seconds_bucket") {
			var v int64
			if _, err := fmtSscan(line, &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < lastBucket {
				t.Errorf("bucket counts not cumulative: %d after %d in %q", v, lastBucket, line)
			}
			lastBucket = v
		}
	}
	if lastBucket != 3 {
		t.Errorf("+Inf bucket = %d, want 3", lastBucket)
	}
}

func fmtSscan(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*v, err = parseInt(line[i+1:])
	return 1, err
}

func parseInt(s string) (int64, error) {
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errBadInt
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

var errBadInt = &parseErr{}

type parseErr struct{}

func (*parseErr) Error() string { return "not an integer" }

// TestHistogramConcurrent hammers one histogram from many goroutines and
// checks the books balance: total count, per-bucket cumulative counts and
// the sum must account for every observation. Run under -race in CI.
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{0.25, 0.5, 0.75})
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Deterministic spread over all four buckets.
				h.Observe(float64(i%4) * 0.25)
			}
		}(g)
	}
	wg.Wait()

	cum, count, sum := h.Snapshot()
	const total = goroutines * perG
	if count != total {
		t.Fatalf("count = %d, want %d", count, total)
	}
	if cum[len(cum)-1] != total {
		t.Fatalf("+Inf cumulative = %d, want %d", cum[len(cum)-1], total)
	}
	// i%4 in {0,1,2,3} ⇒ observations 0, .25, .5, .75 in equal shares.
	// le=0.25 holds both 0 and 0.25, so cumulative = 2/4, 3/4, 4/4, 4/4.
	for i, want := range []int64{total / 2, 3 * total / 4, total, total} {
		if cum[i] != want {
			t.Errorf("bucket %d cumulative = %d, want %d", i, cum[i], want)
		}
	}
	wantSum := float64(total) * (0 + 0.25 + 0.5 + 0.75) / 4
	if math.Abs(sum-wantSum) > 1e-6*wantSum {
		t.Errorf("sum = %g, want %g", sum, wantSum)
	}
}

// TestCounterVecConcurrent checks labelled child creation races cleanly.
func TestCounterVecConcurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("x_total", "x", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				cv.With("a").Inc()
				cv.With("b").Inc()
			}
		}()
	}
	wg.Wait()
	if got := cv.With("a").Value(); got != 8000 {
		t.Errorf("a = %d, want 8000", got)
	}
	if got := cv.With("b").Value(); got != 8000 {
		t.Errorf("b = %d, want 8000", got)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("y_total", "y").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	if !strings.Contains(rec.Body.String(), "y_total 1") {
		t.Errorf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	for name, fn := range map[string]func(){
		"duplicate":    func() { r.Counter("dup_total", "second") },
		"bad name":     func() { r.Counter("0bad", "x") },
		"bad label":    func() { r.CounterVec("ok_total", "x", "0bad") },
		"colon label":  func() { r.CounterVec("c_total", "x", "a:b") },
		"__ label":     func() { r.GaugeVec("g", "x", "__reserved") },
		"le label":     func() { r.HistogramVec("h_seconds", "x", nil, "le") },
		"label arity":  func() { r.CounterVec("v_total", "x", "k").With("a", "b") },
		"bad functype": func() { r.SampleFunc("f", "x", TypeHistogram, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
