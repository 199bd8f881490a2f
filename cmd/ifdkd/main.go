// Command ifdkd is the iFDK reconstruction daemon: a long-lived HTTP
// service that schedules many concurrent distributed reconstructions on a
// bounded worker pool, deduplicates identical requests through a result
// cache, and serves volume slices as PNG. Admission is cost-aware: each
// job's runtime and working set are estimated from the paper's performance
// model (Sec. 4.2) at submit time and admitted against a queued-work budget
// and per-client rate quotas, with priority aging so low-priority jobs
// cannot starve.
//
// Delivery is incremental, matching the paper's "instant" claim: every job
// publishes queued/started/round/slice/done lifecycle events over SSE, and
// its output slices stream out as each row group's epilogue hands them to
// the job's volume — long before the job is terminal.
//
//	ifdkd -addr :8080 -workers 4 -queue 16 -cache-mb 1024 \
//	      -max-queued-sec 30 -quota-rps 5 -aging 15s -event-log 1024 \
//	      -log-json -log-level info -debug-addr localhost:6060
//
// Quickstart:
//
//	curl -s -X POST localhost:8080/v1/jobs \
//	     -d '{"phantom":"shepplogan","nx":32,"r":2,"c":2,"verify":true,"client":"alice"}'
//	curl -s localhost:8080/v1/jobs/j00000001
//	curl -sN localhost:8080/v1/jobs/j00000001/events          # SSE progress
//	curl -sN localhost:8080/v1/jobs/j00000001/stream -o vol.mime  # live slices
//	curl -s localhost:8080/v1/jobs/j00000001/slice/16 > slice.png
//	curl -s localhost:8080/v1/metrics
//
// SIGINT/SIGTERM triggers a graceful shutdown: admission stops, queued and
// running jobs drain (up to -drain), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "net/http/pprof"

	"ifdk/internal/ct/kernels"
	"ifdk/internal/obs"
	"ifdk/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "concurrent reconstructions")
	queueCap := flag.Int("queue", 16, "admission queue capacity, jobs")
	maxQueuedSec := flag.Float64("max-queued-sec", 0,
		"admission cost budget: max estimated seconds of queued work (0 = unlimited)")
	maxInflightMB := flag.Int64("max-inflight-mb", 0,
		"admission byte budget: max estimated in-flight working set in MiB (0 = unlimited)")
	quotaRPS := flag.Float64("quota-rps", 0,
		"per-client submission rate limit in requests/s (0 = no quotas)")
	aging := flag.Duration("aging", 15*time.Second,
		"queued-job priority aging: wait per one-class priority boost (0 disables)")
	cacheMB := flag.Int64("cache-mb", 1024,
		"result cache budget in MiB; it bounds every settled job's volume (<= 0 disables it, and no settled volume is served)")
	eventLog := flag.Int("event-log", 0,
		"retained events per job for /events resume and /stream replay (0 = default 1024)")
	node := flag.String("node", "",
		"node id prefixed to job ids; give every backend behind an ifdk-router a distinct one")
	journalDir := flag.String("journal-dir", "",
		"write-ahead job journal directory; accepted jobs survive restarts (empty disables durability)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON records instead of text")
	logLevel := flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
	debugAddr := flag.String("debug-addr", "", "optional debug listen address serving net/http/pprof (off when empty)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ifdkd: bad -log-level %q (want debug, info, warn or error)\n", *logLevel)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, obs.NewLoggerOptions{JSON: *logJSON, Level: level}, "ifdkd", *node)

	opt := service.Options{
		Workers:          *workers,
		QueueCap:         *queueCap,
		MaxQueuedSec:     *maxQueuedSec,
		MaxInflightBytes: *maxInflightMB << 20,
		QuotaRPS:         *quotaRPS,
		EventLogCap:      *eventLog,
		NodeID:           *node,
		JournalDir:       *journalDir,
		Logger:           logger,
	}
	if *aging <= 0 {
		opt.Aging = -1 // disabled (0 in Options means "default")
	} else {
		opt.Aging = *aging
	}
	opt.CacheBytes = *cacheMB << 20
	if *cacheMB <= 0 {
		opt.CacheBytes = -1 // explicit off; 0 would mean "default"
	}

	if err := run(*addr, *debugAddr, opt, *drain, logger); err != nil {
		fmt.Fprintln(os.Stderr, "ifdkd:", err)
		os.Exit(1)
	}
}

func run(addr, debugAddr string, opt service.Options, drain time.Duration, logger *slog.Logger) error {
	m, err := service.OpenManager(opt)
	if err != nil {
		return err
	}
	srv := &http.Server{Addr: addr, Handler: service.NewServer(m)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if debugAddr != "" {
		// pprof registers on http.DefaultServeMux via its import side effect;
		// serve it on a separate listener so profiling stays off the API port.
		go func() {
			logger.Info("pprof debug server listening", "addr", debugAddr)
			if err := http.ListenAndServe(debugAddr, nil); err != nil {
				logger.Error("pprof debug server failed", "err", err)
			}
		}()
	}

	agingDesc := "off"
	if opt.Aging > 0 {
		agingDesc = opt.Aging.String()
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("serving",
			"addr", addr, "workers", opt.Workers, "queue", opt.QueueCap,
			"budget_sec", opt.MaxQueuedSec, "budget_mib", opt.MaxInflightBytes>>20,
			"quota_rps", opt.QuotaRPS, "aging", agingDesc,
			"isa", kernels.ISA())
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain_budget", drain.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if err := m.Shutdown(shutCtx); err != nil {
		logger.Warn("manager shutdown", "err", err)
	}
	logger.Info("bye")
	return nil
}
