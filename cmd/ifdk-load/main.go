// Command ifdk-load drives a closed-loop reconstruction workload against a
// running ifdkd (or an ifdk-router fronting a fleet — the generator cannot
// tell the difference) and reports what the service did with it: throughput,
// submit→done latency percentiles, backpressure retries, cache hits and
// verification outcomes. It is the one measuring tool that can point at an
// external daemon; every committed performance number comes from benchmark/
// (see BENCHMARK.json), which boots its own stack. All traffic flows through
// the pkg/client SDK over the versioned pkg/api contract. With no -addr it
// spins up an in-process server first:
//
//	ifdk-load -jobs 24 -clients 6 -workers 4
//	ifdk-load -addr http://localhost:8080 -jobs 50
//
// A fraction of the jobs are exact duplicates (exercising the result
// cache), a fraction request serial-reference verification, and one job is
// cancelled mid-flight to check teardown latency. The process exits
// non-zero if any job fails, any verified job exceeds the paper's 1e-5
// relative-RMSE bound, or the cancelled job does not settle promptly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ifdk/internal/service"
	"ifdk/pkg/api"
	"ifdk/pkg/client"
)

type result struct {
	id      string
	view    api.View
	latency time.Duration
	err     error
}

type loadConfig struct {
	addr        string
	jobs        int
	clients     int
	nx          int
	dupEvery    int
	verifyEvery int
	workers     int
	queueCap    int
	timeout     time.Duration
}

// summary is what one run observed, for the report and the test.
type summary struct {
	ok, failed, cacheHits, verified int
	worstRMSE                       float64
	cancelProbe                     string // how the cancelled job settled; empty if it did not
}

func main() {
	var lc loadConfig
	flag.StringVar(&lc.addr, "addr", "", "server base URL (empty = start an in-process server)")
	flag.IntVar(&lc.jobs, "jobs", 24, "number of jobs to submit")
	flag.IntVar(&lc.clients, "clients", 6, "concurrent submitting clients")
	flag.IntVar(&lc.nx, "nx", 16, "volume voxels per side for every job")
	flag.IntVar(&lc.dupEvery, "dup-every", 3, "every n-th job repeats an earlier spec (0 = never)")
	flag.IntVar(&lc.verifyEvery, "verify-every", 4, "every n-th job verifies against the serial reference (0 = never)")
	flag.IntVar(&lc.workers, "workers", 4, "worker pool size (in-process server only)")
	flag.IntVar(&lc.queueCap, "queue", 8, "queue capacity (in-process server only)")
	flag.DurationVar(&lc.timeout, "timeout", 5*time.Minute, "overall deadline")
	flag.Parse()

	if _, err := run(lc); err != nil {
		fmt.Fprintln(os.Stderr, "ifdk-load:", err)
		os.Exit(1)
	}
}

// specFor builds the i-th job of the mixed workload: alternating medical
// (Shepp–Logan head), industrial (machined block) and calibration (sphere)
// scans on varying grids, with periodic exact duplicates to exercise the
// result cache.
func specFor(i, nx, dupEvery, verifyEvery int) api.Spec {
	if dupEvery > 0 && i > 0 && i%dupEvery == 0 {
		// Repeat an earlier job's spec exactly; keep dupEvery so a
		// reference that is itself a dup slot resolves through the chain.
		return specFor(i/dupEvery-1, nx, dupEvery, verifyEvery)
	}
	phantoms := []string{"shepplogan", "industrial", "sphere"}
	grids := [][2]int{{2, 2}, {4, 2}, {2, 4}, {4, 1}}
	g := grids[i%len(grids)]
	s := api.Spec{
		Phantom: phantoms[i%len(phantoms)],
		NX:      nx,
		NP:      2*nx + 8*(i%3)*g[0]*g[1], // vary scan length, keep Np % R·C == 0
		R:       g[0],
		C:       g[1],
	}
	if verifyEvery > 0 && i%verifyEvery == 0 {
		s.Verify = true
	}
	return s
}

func run(lc loadConfig) (summary, error) {
	ctx, cancel := context.WithTimeout(context.Background(), lc.timeout)
	defer cancel()

	addr := lc.addr
	if addr == "" {
		m := service.NewManager(service.Options{Workers: lc.workers, QueueCap: lc.queueCap})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return summary{}, err
		}
		srv := &http.Server{Handler: service.NewServer(m)}
		go srv.Serve(ln)
		defer func() {
			shutCtx, c := context.WithTimeout(context.Background(), 30*time.Second)
			defer c()
			srv.Shutdown(shutCtx)
			m.Shutdown(shutCtx)
		}()
		addr = "http://" + ln.Addr().String()
		fmt.Printf("in-process server on %s (%d workers, queue %d)\n", addr, lc.workers, lc.queueCap)
	}

	// Generous retries against backpressure, every retry counted into the
	// report: the generator retries saturation until its own deadline.
	var retries atomic.Int64
	c := client.New(addr, client.WithRetry(client.Retry{
		Max:  1 << 20,
		Base: 25 * time.Millisecond,
		Cap:  250 * time.Millisecond,
		OnRetry: func(string, int, time.Duration) {
			retries.Add(1)
		},
	}))
	fmt.Printf("submitting %d jobs from %d clients (nx=%d, dup every %d, verify every %d)\n",
		lc.jobs, lc.clients, lc.nx, lc.dupEvery, lc.verifyEvery)

	var (
		wg        sync.WaitGroup
		resMu     sync.Mutex
		results   []result
		jobIdx    atomic.Int64
		wallStart = time.Now()
	)
	for range lc.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(jobIdx.Add(1)) - 1
				if i >= lc.jobs {
					return
				}
				r := driveJob(ctx, c, specFor(i, lc.nx, lc.dupEvery, lc.verifyEvery))
				resMu.Lock()
				results = append(results, r)
				resMu.Unlock()
			}
		}()
	}

	// One extra job is cancelled mid-flight to measure teardown latency.
	var (
		settled   string
		probeErr  error
		probeDone = make(chan struct{})
	)
	go func() {
		defer close(probeDone)
		settled, probeErr = cancelProbe(ctx, c, lc.nx)
	}()

	wg.Wait()
	wall := time.Since(wallStart)
	<-probeDone

	s := report(ctx, c, results, wall, retries.Load())
	s.cancelProbe = settled
	var failed, inexact error
	if s.failed > 0 {
		failed = fmt.Errorf("%d jobs failed", s.failed)
	}
	if s.worstRMSE > 1e-5 {
		inexact = fmt.Errorf("verification exceeded bound: %.2e > 1e-5", s.worstRMSE)
	}
	return s, errors.Join(probeErr, failed, inexact)
}

// driveJob submits one spec (the SDK retries backpressure under the hood)
// and awaits its terminal state.
func driveJob(ctx context.Context, c *client.Client, spec api.Spec) result {
	start := time.Now()
	var r result
	v, err := c.Submit(ctx, spec)
	if err != nil {
		r.err = err
		return r
	}
	r.id = v.ID
	r.view, err = c.Await(ctx, v.ID, 10*time.Millisecond)
	if err != nil {
		r.err = err
		return r
	}
	r.latency = time.Since(start)
	if r.view.State != api.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", r.id, r.view.State, r.view.Error)
	}
	return r
}

// cancelProbe submits a job and cancels it immediately, checking that the
// service settles it quickly. It returns how the job settled.
func cancelProbe(ctx context.Context, c *client.Client, nx int) (string, error) {
	spec := api.Spec{Phantom: "sphere", NX: nx, NP: 8 * nx, R: 2, C: 2, Priority: "low", Client: "probe"}
	v, err := c.Submit(ctx, spec)
	if err != nil {
		return "", fmt.Errorf("cancel probe submit: %w", err)
	}
	if err := c.Cancel(ctx, v.ID); err != nil {
		return "", fmt.Errorf("cancel probe delete: %w", err)
	}
	start := time.Now()
	probeCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	final, err := c.Await(probeCtx, v.ID, 5*time.Millisecond)
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) && apiErr.Code == api.CodeNotFound {
			// The probe finished before the cancel arrived, which then
			// deleted the terminal record: also a settled state.
			fmt.Printf("cancel probe: job %s finished before cancel and was deleted\n", v.ID)
			return "deleted", nil
		}
		return "", fmt.Errorf("cancel probe: job %s did not settle promptly: %w", v.ID, err)
	}
	fmt.Printf("cancel probe: job %s settled as %s in %v\n", v.ID, final.State, time.Since(start).Round(time.Millisecond))
	return string(final.State), nil
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// report prints the client-side results and the server's own counters, and
// returns the tallies run turns into an exit status.
func report(ctx context.Context, c *client.Client, results []result, wall time.Duration, retries int64) summary {
	var s summary
	var lats []time.Duration
	for _, r := range results {
		if r.err != nil {
			s.failed++
			fmt.Printf("FAIL %s: %v\n", r.id, r.err)
			continue
		}
		s.ok++
		lats = append(lats, r.latency)
		if r.view.CacheHit {
			s.cacheHits++
		}
		if r.view.Verified {
			s.verified++
			if r.view.RelRMSE > s.worstRMSE {
				s.worstRMSE = r.view.RelRMSE
			}
		}
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })

	fmt.Printf("\n=== service-level results ===\n")
	fmt.Printf("jobs:        %d submitted, %d ok, %d failed\n", len(results), s.ok, s.failed)
	fmt.Printf("wall time:   %v  (%.2f jobs/s)\n", wall.Round(time.Millisecond), float64(s.ok)/wall.Seconds())
	fmt.Printf("latency:     p50 %v  p90 %v  p99 %v  max %v\n",
		percentile(lats, 0.50).Round(time.Millisecond), percentile(lats, 0.90).Round(time.Millisecond),
		percentile(lats, 0.99).Round(time.Millisecond), percentile(lats, 1.0).Round(time.Millisecond))
	fmt.Printf("backpressure: %d retries after 503/429\n", retries)
	fmt.Printf("cache hits:  %d/%d jobs\n", s.cacheHits, len(results))
	fmt.Printf("verified:    %d jobs vs serial FDK, worst relative RMSE %.2e (bound 1e-5)\n", s.verified, s.worstRMSE)

	if mt, err := c.Metrics(ctx); err == nil {
		fmt.Printf("server:      %d workers, %d runs + %d cache hits, cache %d entries %.1f/%.1f MiB, PFS %.1f MB written\n",
			mt.Workers, mt.Completed, mt.CacheHits, mt.Cache.Entries, float64(mt.Cache.Bytes)/(1<<20),
			float64(mt.Cache.MaxBytes)/(1<<20), mt.PFSWriteMB)
		fmt.Printf("admission:   %d admitted, rejected: %d full, %d cost, %d bytes, %d quota (cost scale %.3g)\n",
			mt.Admission.Admitted, mt.Admission.RejectedFull, mt.Admission.RejectedCost,
			mt.Admission.RejectedBytes, mt.Admission.RejectedQuota, mt.CostScale)
		for _, class := range []string{"high", "normal", "low"} {
			if ws, ok := mt.WaitSec[class]; ok {
				fmt.Printf("wait[%s]:  p50 %.3fs  p90 %.3fs  p99 %.3fs  (%d jobs)\n",
					class, ws.P50, ws.P90, ws.P99, ws.Count)
			}
		}
	}
	return s
}
