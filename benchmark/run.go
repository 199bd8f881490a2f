package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"ifdk/internal/engine"
)

// runConfig is one invocation: a workload, a seed, how long to measure and
// whether this is the traced pass.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	log     io.Writer // progress lines while the run is under way
	outDir  string    // where the traced pass writes <workload>.trace.json
}

// runResult is what a run measured. e2e and the job-phase rows of layers are
// always filled; the probe rows of layers only by the traced pass.
type runResult struct {
	cfg runConfig
	aggregated
	attempted, failed int
	stamp             stamp
	tracePath         string
}

// metrics returns the definitions and values of the pass that ran: what the
// result line carries.
func (res runResult) metrics() ([]metricDef, values) {
	if res.cfg.trace {
		return perLayer, res.layers
	}
	return endToEnd, res.e2e
}

// runWorkload measures one workload. The untraced run is w.rounds rounds;
// the traced pass is one round, with spans around every SDK call of every
// other job, followed by the direct probes of each layer.
func runWorkload(ctx context.Context, cfg runConfig) (runResult, error) {
	res := runResult{cfg: cfg, stamp: newStamp()}
	w := cfg.w
	fmt.Fprintf(cfg.log, "workload %s seed %d seconds %g trace %v\n  %s\n", w.name, cfg.seed, cfg.seconds, cfg.trace, res.stamp)

	var tr *tracer
	n := w.rounds
	opts := roundOpts{
		budget:    time.Duration(cfg.seconds * float64(time.Second) / float64(w.rounds)),
		reference: true,
		probe:     w.hostProbe(),
	}
	if cfg.trace {
		tr = newTracer()
		n, opts.tr, opts.direct = 1, tr, 1
		if w.fleet {
			opts.direct = 8
		}
	}
	var rounds []round
	for i := 0; i < n; i++ {
		r, err := runRound(ctx, w, w.plan(cfg.seed, i), opts)
		if err != nil {
			return res, fmt.Errorf("round %d: %w", i, err)
		}
		fmt.Fprintf(cfg.log, "  round %d: set-up %.3fs, %d jobs in %.3fs, host probe %.1f ms over %d readings\n",
			i, r.setupS, len(r.jobs), r.wallS, 1000*sum(r.probeS)/float64(len(r.probeS)), len(r.probeS))
		if r.exhausted && w.fleet {
			fmt.Fprintf(cfg.log, "  round %d: a client ran out of generated items before its time was up\n", i)
		}
		rounds = append(rounds, r)
		opts.reference = false // once per run
	}

	agg := aggregate(rounds, w.probeNominalS)
	if cfg.trace {
		lp, err := probeLayers(ctx, w.probeSpec(), tr)
		if err != nil {
			return res, fmt.Errorf("layer probes: %w", err)
		}
		agg.checks += 2 // the pipeline against the serial reference; the MPI traffic model
		agg.errs = append(agg.errs, lp.errs...)
		for k, v := range lp.vals {
			agg.layers[k] = v
		}
		deriveProbeRows(agg.layers, rounds[0], lp, agg)
	}

	// Everything is shut down: what is still held is leaked.
	time.Sleep(50 * time.Millisecond) // let the closed connections' goroutines exit
	agg.layers["process.goroutines_end"] = float64(runtime.NumGoroutine())
	agg.layers["engine.pool_in_use_bytes_end"] = float64(engine.InUseBytes())
	agg.e2e["peak_rss_mb"] = peakRSSMiB()
	agg.checks++
	if held := engine.InUseBytes(); held != 0 {
		agg.errs = append(agg.errs, fmt.Sprintf("engine pools still hold %d bytes after shutdown", held))
	}
	if w.layerSum {
		agg.checks++
		if share := agg.unexplainedShare(); share > maxUnexplained {
			agg.errs = append(agg.errs, fmt.Sprintf("layer sum: %.2f%% of job_p50_s is unexplained, limit %.0f%%", 100*share, 100*maxUnexplained))
		}
	}
	res.attempted = agg.setupOps + agg.timedOps + agg.checks
	res.failed = agg.setupFails + agg.timedFails + len(agg.errs)
	res.aggregated = agg

	res.stamp.LoadEnd = loadavg()
	if cfg.trace {
		var err error
		res.tracePath, err = writeTrace(cfg.outDir, traceFile{Workload: w.name, Seed: cfg.seed, Stamp: res.stamp, Spans: tr.finish()})
		if err != nil {
			return res, fmt.Errorf("writing trace: %w", err)
		}
	}
	if defs, vals := res.metrics(); len(vals.missing(defs)) > 0 {
		return res, fmt.Errorf("metrics not measured: %v", vals.missing(defs))
	}
	return res, nil
}

// unexplainedShare is the layer sum's verdict: the share of job_p50_s that
// queue wait and the pipeline's compute, reduce and store stages do not
// account for.
func (a aggregated) unexplainedShare() float64 {
	return ratio(math.Abs(a.residualS), a.asTimed["job_p50_s"])
}

// report prints everything a run measured, by name and with units, for
// people; the driver reads only the result line that follows.
func (res runResult) report(w io.Writer) {
	a := res.aggregated
	fmt.Fprintf(w, "  layer sum: queue wait + compute + reduce + store leave %.4fs = %.2f%% of job_p50_s unexplained\n"+
		"    (service.overhead_p50_s %.4fs + service.wrap_p50_s %.4fs + core.unexplained_s %.4fs, each a per-job median)\n",
		a.residualS, 100*a.unexplainedShare(), res.layers["service.overhead_p50_s"], res.layers["service.wrap_p50_s"], res.layers["core.unexplained_s"])
	fmt.Fprintf(w, "  set-up: %d operations attempted, %d failed\n  timed:  %d operations attempted, %d failed\n  checks: %d made, %d failed\n",
		a.setupOps, a.setupFails, a.timedOps, a.timedFails, a.checks, len(a.errs))
	for _, e := range append(a.jobErrs, a.errs...) {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	fmt.Fprintf(w, "  failed_share %.6g ratio (%d of %d)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	if res.tracePath != "" {
		fmt.Fprintf(w, "  spans written to %s\n", res.tracePath)
	}

	fmt.Fprintf(w, "end-to-end (job timings over %d cold jobs; times and rates at the host probe's nominal speed):\n", len(a.jobS))
	printMetrics(w, endToEnd, res.e2e)
	fmt.Fprintf(w, "as the clock read them, on a host at %.3f of the probe's nominal time:\n", res.layers["host.slowdown"])
	for _, d := range endToEnd {
		if v, ok := a.asTimed[d.name]; ok {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, d := range a.dists {
		fmt.Fprintf(w, "  %-34s q1 %.6g  median %.6g  q3 %.6g  n %d\n", d.name, d.q1, d.med, d.q3, d.n)
	}
	if len(a.jobS) <= 32 {
		fmt.Fprintf(w, "  job_s in order: %.3f\n", a.jobS)
	}
	fmt.Fprintln(w, "per layer:")
	if res.cfg.trace {
		printMetrics(w, perLayer, res.layers)
	} else {
		printMetrics(w, jobLayer, res.layers)
	}
	fmt.Fprintf(w, "  %s\n", res.stamp)
}
