package main

import (
	"math"
	"strings"
)

// dist is a timing's spread within one run.
type dist struct {
	name        string
	q1, med, q3 float64
	n           int
}

func newDist(name string, xs []float64) dist {
	q1, med, q3 := quartiles(xs)
	return dist{name, q1, med, q3, len(xs)}
}

// aggregated is a run's rounds folded into metrics and counts.
type aggregated struct {
	e2e, layers values
	asTimed     values  // the times and rates of e2e as the clock read them
	host        float64 // the host probe's mean reading over its nominal time: 1.5 is a host half as slow again
	dists       []dist
	residualS   float64 // per-job median of job − (wait + compute + reduce + store)

	setupOps, setupFails int
	timedOps, timedFails int
	checks               int
	jobErrs              []string // what failed inside jobs (already counted per operation)
	errs                 []string // failed checks, one each

	jobS []float64 // cold job latencies in the order they ran

	// job_p50_s over the untraced and over the traced cold jobs alone, for
	// the tracing overhead; 0 where there are none.
	untracedJobP50, tracedJobP50 float64
}

// column collects one number per sample.
func column(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		out = append(out, f(s))
	}
	return out
}

// shapeMedian is the typical value of f over jobs of mixed cost: the median
// within each shape, averaged over the shapes with every shape counting
// once. On a workload of one shape it is the plain median. On fleet_mixed the
// plain median is no measure at all: half the cold jobs are nx=16 and half
// nx=32, four times apart, so it sits in the empty gap between the largest
// time of one kind and the smallest of the other and jumps by a quarter of
// itself with the seed's draw.
func shapeMedian(ss []sample, f func(sample) float64) float64 {
	byShape := map[shape][]float64{}
	for _, s := range ss {
		sh := shapeOf(s.item.spec)
		byShape[sh] = append(byShape[sh], f(s))
	}
	total := 0.0
	for _, xs := range byShape {
		total += median(xs)
	}
	return ratio(total, float64(len(byShape)))
}

func aggregate(rounds []round, probeNominalS float64) aggregated {
	a := aggregated{e2e: values{}, layers: values{}}
	var (
		setups, probeS, costScales        []float64
		wall, cpu                         float64
		sliceGets                         []float64
		good, cold, hits                  []sample
		mallocs, allocBytes, gcPauseNS    uint64
		repeats, repeatHits               int
		retries, reroutes, drops, rejects int64
		perBackend                        = map[string]int{}
		fleet                             bool
	)
	count := func(ss []sample, ops, fails *int) {
		for _, s := range ss {
			*ops += s.ops
			*fails += min(len(s.errs), s.ops)
			a.jobErrs = append(a.jobErrs, s.errs...)
		}
	}
	for _, r := range rounds {
		count(r.warm, &a.setupOps, &a.setupFails)
		count(r.jobs, &a.timedOps, &a.timedFails)
		a.checks += r.checks
		a.errs = append(a.errs, r.checkErrs...)
		setups = append(setups, r.setupS)
		probeS = append(probeS, r.probeS...)
		costScales = append(costScales, r.svc.CostScale)
		wall += r.wallS
		cpu += r.cpuS
		mallocs, allocBytes, gcPauseNS = mallocs+r.mallocs, allocBytes+r.allocBytes, gcPauseNS+r.gcPauseNS
		retries, reroutes, drops = retries+r.retries, reroutes+r.reroutes, drops+r.svc.EventDrops
		ad := r.svc.Admission
		rejects += ad.RejectedFull + ad.RejectedCost + ad.RejectedBytes + ad.RejectedQuota
		fleet = fleet || len(r.svc.Backends) > 0
		for _, s := range r.jobs {
			// A job that failed misses every limit: it contributes no
			// latency sample, only a failure.
			if len(s.errs) > 0 {
				continue
			}
			good = append(good, s)
			sliceGets = append(sliceGets, s.sliceGets...)
			if s.item.repeatOf >= 0 {
				repeats++
				if s.hit {
					repeatHits++
				}
			}
			if s.hit {
				hits = append(hits, s)
			} else {
				cold = append(cold, s)
			}
			if node, _, ok := strings.Cut(s.id, "-"); ok { // fleet job IDs are "<node>-j<seq>"
				perBackend[node]++
			}
		}
	}
	n := float64(len(good))

	jobS := column(cold, func(s sample) float64 { return s.job })
	a.jobS = jobS
	ttfs := column(cold, func(s sample) float64 { return s.ttfs })
	ttfv := column(cold, func(s sample) float64 { return s.ttfv })
	a.dists = []dist{newDist("setup_s", setups), newDist("job_s", jobS), newDist("ttfs_s", ttfs), newDist("ttfv_s", ttfv)}
	a.asTimed = values{
		"setup_s":       median(setups),
		"job_p50_s":     shapeMedian(cold, func(s sample) float64 { return s.job }),
		"gups":          ratio(sum(column(cold, func(s sample) float64 { return updates(s.item.spec) }))/(1<<30), wall),
		"jobs_per_s":    ratio(n, wall),
		"ttfs_p50_s":    shapeMedian(cold, func(s sample) float64 { return s.ttfs }),
		"ttfv_p50_s":    shapeMedian(cold, func(s sample) float64 { return s.ttfv }),
		"cpu_s_per_job": ratio(cpu, n),
	}
	// The run's seconds become seconds at the host probe's nominal speed:
	// the clock's divided by how much longer than nominal the probe took,
	// on average over the run's readings.
	a.host = sum(probeS) / float64(len(probeS)) / probeNominalS
	for _, d := range endToEnd {
		if v, ok := a.asTimed[d.name]; ok && d.unit == "s" {
			a.e2e[d.name] = v / a.host
		} else if ok {
			a.e2e[d.name] = v * a.host // a rate
		}
	}

	l := a.layers
	l["host.slowdown"] = a.host
	l["client.submit_rtt_p50_s"] = median(column(good, func(s sample) float64 { return s.submitRTT }))
	l["client.retries"] = float64(retries)
	l["router.affinity_ratio"] = ratio(float64(repeatHits), float64(repeats))
	l["router.backend_share_max"] = 0
	if fleet {
		for _, jobs := range perBackend {
			l["router.backend_share_max"] = max(l["router.backend_share_max"], ratio(float64(jobs), n))
		}
	}
	l["router.reroutes"] = float64(reroutes)

	wrap := func(s sample) float64 { return s.view.RunSec - s.view.Stages.Total }
	l["service.queue_wait_p50_s"] = shapeMedian(cold, func(s sample) float64 { return s.view.WaitSec })
	l["service.run_p50_s"] = shapeMedian(cold, func(s sample) float64 { return s.view.RunSec })
	l["service.job_p95_s"], _ = percentile(jobS, 0.95) // 0 without ten samples beyond it
	l["service.overhead_p50_s"] = shapeMedian(cold, func(s sample) float64 { return s.job - s.view.WaitSec - s.view.RunSec })
	l["service.wrap_p50_s"] = shapeMedian(cold, wrap)
	l["service.cache_hit_p50_s"] = median(column(hits, func(s sample) float64 { return s.job }))
	l["service.cache_hit_ratio"] = ratio(float64(len(hits)), n)
	var verified, plain, ttfp []float64
	for _, s := range cold {
		if s.item.spec.Verify {
			verified = append(verified, wrap(s))
		} else {
			plain = append(plain, wrap(s))
		}
		if s.ttfp > 0 {
			ttfp = append(ttfp, s.ttfp)
		}
	}
	l["service.verify_s"] = 0
	if len(verified) > 0 {
		l["service.verify_s"] = median(verified) - median(plain)
	}
	l["service.slice_get_p50_s"] = median(sliceGets)
	l["service.ttfp_p50_s"] = median(ttfp)
	l["service.stream_tail_p50_s"] = shapeMedian(cold, func(s sample) float64 { return s.ttfv - s.job })
	l["service.event_drops"] = float64(drops)
	l["service.admission_rejects"] = float64(rejects)
	l["service.cost_scale"] = median(costScales)

	stage := func(name string, f func(sample) float64) { l[name] = shapeMedian(cold, f) }
	stage("core.load_s", func(s sample) float64 { return s.view.Stages.Load })
	stage("core.filter_s", func(s sample) float64 { return s.view.Stages.Filter })
	stage("core.allgather_s", func(s sample) float64 { return s.view.Stages.AllGather })
	stage("core.backproject_s", func(s sample) float64 { return s.view.Stages.Backproject })
	stage("core.compute_s", func(s sample) float64 { return s.view.Stages.Compute })
	stage("core.reduce_s", func(s sample) float64 { return s.view.Stages.Reduce })
	stage("core.store_s", func(s sample) float64 { return s.view.Stages.Store })
	stage("core.total_s", func(s sample) float64 { return s.view.Stages.Total })
	stage("core.delta", func(s sample) float64 {
		st := s.view.Stages
		return ratio(st.Filter+st.AllGather+st.Backproject, st.Compute)
	})
	stage("core.unexplained_s", func(s sample) float64 {
		st := s.view.Stages
		return st.Total - st.Compute - st.Reduce - st.Store
	})
	a.residualS = shapeMedian(cold, func(s sample) float64 {
		st := s.view.Stages
		return s.job - (s.view.WaitSec + st.Compute + st.Reduce + st.Store)
	})

	l["process.allocs_per_job"] = ratio(float64(mallocs), n)
	l["process.alloc_mb_per_job"] = ratio(float64(allocBytes)/(1<<20), n)
	l["process.gc_pause_s"] = float64(gcPauseNS) / 1e9

	var traced, untraced []sample
	for _, s := range cold {
		if s.traced {
			traced = append(traced, s)
		} else {
			untraced = append(untraced, s)
		}
	}
	job := func(s sample) float64 { return s.job }
	a.tracedJobP50, a.untracedJobP50 = shapeMedian(traced, job), shapeMedian(untraced, job)
	return a
}

// deriveProbeRows fills the per-layer rows that combine the traced round's
// stack probes, the layer probes and the job phase.
func deriveProbeRows(l values, r round, lp layerProbes, a aggregated) {
	// The direct jobs have a few of the workload's shapes: they are held
	// against the HTTP jobs of those shapes only.
	job := func(s sample) float64 { return s.job }
	shapes := map[shape]bool{}
	for _, s := range r.direct {
		shapes[shapeOf(s.item.spec)] = true
	}
	var overHTTP []sample
	for _, s := range r.jobs {
		if shapes[shapeOf(s.item.spec)] && !s.hit && len(s.errs) == 0 {
			overHTTP = append(overHTTP, s)
		}
	}
	l["service.direct_p50_s"] = shapeMedian(r.direct, job)
	l["service.http_overhead_s"] = shapeMedian(overHTTP, job) - l["service.direct_p50_s"]
	l["service.stream_mb_per_s"] = r.streamMiBs
	l["router.hop_s"] = r.hopS
	l["trace_overhead_frac"] = 0
	if a.tracedJobP50 > 0 && a.untracedJobP50 > 0 {
		l["trace_overhead_frac"] = a.tracedJobP50/a.untracedJobP50 - 1
	}

	// Time a rank spent inside AllGather beyond what the exchange costs on
	// idle ranks is time spent waiting for the slowest rank of its column.
	l["mpi.wait_share"] = ratio(l["core.allgather_s"]-float64(lp.agRounds)*l["mpi.allgather_round_s"], l["core.compute_s"])

	// Table 5, per stage: the model's share of the stage sum against the
	// measured share. Shares, because model seconds are the paper's testbed's.
	m := lp.model
	post := m.Post
	modelSum := m.Flt + m.AllGather + m.Bp + post
	measuredPost := l["core.reduce_s"] + l["core.store_s"]
	measuredSum := l["core.filter_s"] + l["core.allgather_s"] + l["core.backproject_s"] + measuredPost
	shareErr := func(model, measured float64) float64 {
		return math.Abs(ratio(model, modelSum) - ratio(measured, measuredSum))
	}
	l["perfmodel.share_err_filter"] = shareErr(m.Flt, l["core.filter_s"])
	l["perfmodel.share_err_allgather"] = shareErr(m.AllGather, l["core.allgather_s"])
	l["perfmodel.share_err_backproject"] = shareErr(m.Bp, l["core.backproject_s"])
	l["perfmodel.share_err_post"] = shareErr(post, measuredPost)
}
