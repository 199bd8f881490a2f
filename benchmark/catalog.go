package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric. The two tables below are the benchmark's
// vocabulary: BENCHMARK.json lists the same names with the same units (a test
// holds the two together) and README.md explains each one.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the numbers a user of the service sees. Every workload
// reports every one of them, none is ever zero, and BENCHMARK.json fixes the
// share by which each may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_p50_s", "s", "lower"},
	{"gups", "GUPS", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"ttfs_p50_s", "s", "lower"},
	{"ttfv_p50_s", "s", "lower"},
	{"cpu_s_per_job", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer are the single-layer numbers of the traced pass, named
// <module>.<metric>. They carry no bound. A metric whose layer a workload
// does not cross (the router on a single daemon, the preview tier on a
// full-quality job) reads 0 there.
var perLayer = append(append([]metricDef(nil), jobLayer...), probeLayer...)

// jobLayer come from the job phase, untraced or traced alike: what the
// service already returns (View timings and stages, /v1/metrics) plus the
// client clock and the process's own counters.
var jobLayer = []metricDef{
	{"host.slowdown", "ratio", "lower"},
	{"client.submit_rtt_p50_s", "s", "lower"},
	{"client.retries", "count", "lower"},
	{"router.affinity_ratio", "ratio", "higher"},
	{"router.backend_share_max", "ratio", "lower"},
	{"router.reroutes", "count", "lower"},
	{"service.queue_wait_p50_s", "s", "lower"},
	{"service.run_p50_s", "s", "lower"},
	{"service.job_p95_s", "s", "lower"},
	{"service.overhead_p50_s", "s", "lower"},
	{"service.wrap_p50_s", "s", "lower"},
	{"service.cache_hit_p50_s", "s", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.verify_s", "s", "lower"},
	{"service.slice_get_p50_s", "s", "lower"},
	{"service.ttfp_p50_s", "s", "lower"},
	{"service.stream_tail_p50_s", "s", "lower"},
	{"service.event_drops", "count", "lower"},
	{"service.admission_rejects", "count", "lower"},
	{"service.cost_scale", "ratio", "lower"},
	{"core.load_s", "s", "lower"},
	{"core.filter_s", "s", "lower"},
	{"core.allgather_s", "s", "lower"},
	{"core.backproject_s", "s", "lower"},
	{"core.compute_s", "s", "lower"},
	{"core.reduce_s", "s", "lower"},
	{"core.store_s", "s", "lower"},
	{"core.total_s", "s", "lower"},
	{"core.delta", "ratio", "higher"},
	{"core.unexplained_s", "s", "lower"},
	{"process.allocs_per_job", "count", "lower"},
	{"process.alloc_mb_per_job", "MiB", "lower"},
	{"process.gc_pause_s", "s", "lower"},
	{"process.goroutines_end", "count", "lower"},
	{"engine.pool_in_use_bytes_end", "bytes", "lower"},
}

// probeLayer come from the traced pass only: each layer's public entry
// points called directly, and the probes that need spans to be on.
var probeLayer = []metricDef{
	{"projector.render_s", "s", "lower"},
	{"projector.mrays_per_s", "Mrays/s", "higher"},
	{"pfs.write_proj_mb_per_s", "MiB/s", "higher"},
	{"pfs.read_proj_mb_per_s", "MiB/s", "higher"},
	{"pfs.write_slice_mb_per_s", "MiB/s", "higher"},
	{"pfs.bytes_read_per_job", "bytes", "lower"},
	{"pfs.bytes_written_per_job", "bytes", "lower"},
	{"filter.plan_build_s", "s", "lower"},
	{"filter.apply_s", "s", "lower"},
	{"filter.mpix_per_s", "Mpix/s", "higher"},
	{"filter.sweep_s", "s", "lower"},
	{"fft.real_row_ns", "ns", "lower"},
	{"backproject.proposed_s", "s", "lower"},
	{"backproject.proposed_par_s", "s", "lower"},
	{"backproject.slabpair_s", "s", "lower"},
	{"backproject.gups", "GUPS", "higher"},
	{"backproject.speedup_vs_standard", "ratio", "higher"},
	{"mpi.allgather_round_s", "s", "lower"},
	{"mpi.allgather_mb_per_s", "MiB/s", "higher"},
	{"mpi.reduce_s", "s", "lower"},
	{"mpi.bytes_per_job", "bytes", "lower"},
	{"mpi.msgs_per_job", "count", "lower"},
	{"mpi.wait_share", "ratio", "lower"},
	{"core.direct_total_s", "s", "lower"},
	{"fdk.serial_s", "s", "lower"},
	{"core.speedup_vs_serial", "ratio", "higher"},
	{"service.direct_p50_s", "s", "lower"},
	{"service.http_overhead_s", "s", "lower"},
	{"preview.plan_factor", "count", "higher"},
	{"preview.decimate_s", "s", "lower"},
	{"preview.reconstruct_s", "s", "lower"},
	{"service.stream_mb_per_s", "MiB/s", "higher"},
	{"router.hop_s", "s", "lower"},
	{"perfmodel.share_err_filter", "ratio", "lower"},
	{"perfmodel.share_err_allgather", "ratio", "lower"},
	{"perfmodel.share_err_backproject", "ratio", "lower"},
	{"perfmodel.share_err_post", "ratio", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}

// values holds one run's measurements by metric name.
type values map[string]float64

// missing lists the metrics of defs that vals does not hold, or holds as a
// number JSON cannot carry.
func (vals values) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if v, ok := vals[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out = append(out, d.name)
		}
	}
	return out
}

// outcome is the last line a run prints: the driver's result object.
type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome(defs []metricDef, vals values, attempted, failed int) outcome {
	o := outcome{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		o.Metrics[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return o
}

// printMetrics writes one "name value unit" row per metric.
func printMetrics(w io.Writer, defs []metricDef, vals values) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

func (o outcome) writeLine(w io.Writer) error {
	blob, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
