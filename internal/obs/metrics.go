// Package obs is the zero-dependency observability substrate of the iFDK
// fleet: a counter/gauge/histogram metrics registry with Prometheus text
// exposition, deterministic span IDs for the traces the service assembles
// on request from its job records, and structured-logging helpers. Every plane of the system — the compute
// pipeline (via pre-sized per-rank buffers in internal/core), the service
// layer, the front router and the daemons — reports through this package,
// so the paper's stage-level performance decomposition (Sec. 4.2) is
// observable per job, per rank and per backend in production, not just in
// offline benchmarks.
//
// The package deliberately implements only the slice of the Prometheus
// exposition format the fleet needs (counters, gauges, cumulative
// histograms, HELP/TYPE metadata, label escaping) rather than depending on
// a client library: the container bakes in nothing beyond the standard
// library, and the format is small and stable.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type strings for the exposition TYPE line.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay meaningful).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency buckets (seconds): they span the
// sub-millisecond filter rounds of a small preview up to multi-minute
// full-resolution reconstructions.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Histogram is a fixed-bucket cumulative histogram safe for concurrent
// observation: bucket counts are per-bucket atomics and the sum is a
// CAS-updated float, so Observe never takes a lock on the hot path.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf bucket is implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns the cumulative per-bucket counts (one per bound, plus
// the +Inf bucket last), the total count and the sum. The three are read
// without a lock, so under concurrent observation they may straddle an
// observation; each individually is exact.
func (h *Histogram) Snapshot() (cum []int64, count int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, h.count.Load(), h.Sum()
}

// Sample is one labelled value emitted by a func-backed metric family.
type Sample struct {
	Labels []string // values for the family's label names, in order
	Value  float64
}

// child is one labelled instance inside a family.
type child struct {
	labels []string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family is one named metric family: metadata plus either static children
// (counters, gauges, histograms, possibly labelled) or a sample func
// evaluated at exposition time.
type family struct {
	name, help, typ string
	labels          []string

	mu       sync.Mutex
	children map[string]*child
	order    []string

	fn func() []Sample // non-nil for func-backed families
}

func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labels: append([]string(nil), values...)}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Registry is a collection of metric families with Prometheus text
// exposition. One registry backs both GET /metrics (text exposition for
// scrapers) and the JSON /v1/metrics view, so the two can never drift.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ string, labels []string, fn func() []Sample) *family {
	if !validName(name) {
		panic("obs: invalid metric name " + name)
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") || strings.HasPrefix(l, "__") ||
			typ == TypeHistogram && l == "le" {
			panic("obs: invalid label name " + l + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		children: make(map[string]*child), fn: fn}
	r.families[name] = f
	r.names = append(r.names, name)
	sort.Strings(r.names)
	return f
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, TypeCounter, nil, nil)
	c := f.get(nil)
	c.ctr = &Counter{}
	return c.ctr
}

// Gauge registers and returns an unlabelled settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, TypeGauge, nil, nil)
	c := f.get(nil)
	c.gauge = &Gauge{}
	return c.gauge
}

// Histogram registers and returns an unlabelled histogram (nil buckets use
// DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, TypeHistogram, nil, nil)
	c := f.get(nil)
	c.hist = newHistogram(buckets)
	return c.hist
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, TypeCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	c := v.f.get(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if c.ctr == nil {
		c.ctr = &Counter{}
	}
	return c.ctr
}

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, TypeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	c := v.f.get(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if c.gauge == nil {
		c.gauge = &Gauge{}
	}
	return c.gauge
}

// HistogramVec is a labelled histogram family sharing one bucket layout.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers a histogram family with the given label names
// (nil buckets use DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, TypeHistogram, labels, nil), buckets: buckets}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	c := v.f.get(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if c.hist == nil {
		c.hist = newHistogram(v.buckets)
	}
	return c.hist
}

// GaugeFunc registers a gauge whose value is computed at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeGauge, nil, func() []Sample { return []Sample{{Value: fn()}} })
}

// CounterFunc registers a counter whose value is computed at exposition
// time — a view over a count maintained elsewhere (an atomic in another
// subsystem), kept here so text and JSON metrics read the same source.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeCounter, nil, func() []Sample { return []Sample{{Value: fn()}} })
}

// SampleFunc registers a family whose labelled samples are produced at
// exposition time (e.g. jobs by state). typ is TypeCounter or TypeGauge.
func (r *Registry) SampleFunc(name, help, typ string, labels []string, fn func() []Sample) {
	if typ != TypeCounter && typ != TypeGauge {
		panic("obs: SampleFunc type must be counter or gauge")
	}
	r.register(name, help, typ, labels, fn)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for the given names and values, with
// optional extra pair appended (the histogram "le" bound).
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraK, escapeLabel(extraV))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families sorted by name and children in
// first-use order, so output is stable for golden tests and diffing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.fn != nil {
			for _, s := range f.fn() {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, s.Labels, "", ""), formatFloat(s.Value))
			}
			continue
		}
		f.mu.Lock()
		kids := make([]*child, 0, len(f.order))
		for _, key := range f.order {
			kids = append(kids, f.children[key])
		}
		f.mu.Unlock()
		for _, c := range kids {
			switch {
			case c.ctr != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(f.labels, c.labels, "", ""), c.ctr.Value())
			case c.gauge != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, c.labels, "", ""), formatFloat(c.gauge.Value()))
			case c.hist != nil:
				cum, count, sum := c.hist.Snapshot()
				for i, bound := range c.hist.bounds {
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labels, "le", formatFloat(bound)), cum[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.labels, "le", "+Inf"), cum[len(cum)-1])
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, c.labels, "", ""), formatFloat(sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labels, c.labels, "", ""), count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the text exposition, suitable
// for mounting at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
