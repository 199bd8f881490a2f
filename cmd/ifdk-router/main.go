// Command ifdk-router fronts a fleet of ifdkd backends with one endpoint
// speaking the same versioned /v1 API as a single daemon. Jobs are placed
// by rendezvous-hashing their content cache key, so identical requests
// always land on the same backend and every node's result cache stays hot;
// SSE event streams and mid-run multipart slice streams proxy through
// unbuffered; /v1/metrics aggregates the whole fleet (GET /metrics serves
// the router's own Prometheus registry); trace context propagates through
// every submission; and a health loop reroutes every non-terminal job —
// queued or running — off dead backends by deterministic re-execution on a
// survivor, with live SSE/stream subscribers relayed across the takeover.
//
//	ifdkd -addr :8081 -node b0 &
//	ifdkd -addr :8082 -node b1 &
//	ifdk-router -addr :8080 -backends b0=http://localhost:8081,b1=http://localhost:8082
//
// Clients point pkg/client (or curl) at the router exactly as they would at
// one ifdkd. Run each backend with a distinct -node so job IDs are globally
// unique across the fleet.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "net/http/pprof"

	"ifdk/internal/obs"
	"ifdk/internal/router"
)

func parseBackends(s string) ([]router.Backend, error) {
	if s == "" {
		return nil, fmt.Errorf("-backends is required (name=url,name=url,... or url,url,...)")
	}
	var out []router.Backend
	for i, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, u, ok := strings.Cut(item, "=")
		if !ok {
			name, u = fmt.Sprintf("b%d", i), item
		}
		out = append(out, router.Backend{Name: name, URL: strings.TrimRight(u, "/")})
	}
	return out, nil
}

func parseLevel(s string) (slog.Level, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", s)
	}
	return l, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	backends := flag.String("backends", "",
		"comma-separated backends, name=url pairs (bare urls get b0,b1,... names matching each ifdkd's -node)")
	healthEvery := flag.Duration("health-every", 500*time.Millisecond, "backend health probe period")
	deadAfter := flag.Int("dead-after", 2, "consecutive failed probes before a backend is dead")
	terminalTTL := flag.Duration("terminal-ttl", 10*time.Minute, "forget terminal job routes after this long")
	failoverWait := flag.Duration("failover-wait", 30*time.Second,
		"how long relayed event/slice streams wait for a dead route to fail over before giving up")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON records instead of text")
	logLevel := flag.String("log-level", "info", "minimum log level (debug, info, warn, error)")
	debugAddr := flag.String("debug-addr", "", "optional debug listen address serving net/http/pprof (off when empty)")
	flag.Parse()

	if err := run(*addr, *backends, *healthEvery, *deadAfter, *terminalTTL, *failoverWait, *logJSON, *logLevel, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "ifdk-router:", err)
		os.Exit(1)
	}
}

func run(addr, backendSpec string, healthEvery time.Duration, deadAfter int, terminalTTL, failoverWait time.Duration, logJSON bool, logLevel, debugAddr string) error {
	bs, err := parseBackends(backendSpec)
	if err != nil {
		return err
	}
	level, err := parseLevel(logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, obs.NewLoggerOptions{JSON: logJSON, Level: level}, "ifdk-router", "")

	rt, err := router.New(router.Options{
		Backends:     bs,
		HealthEvery:  healthEvery,
		DeadAfter:    deadAfter,
		TerminalTTL:  terminalTTL,
		FailoverWait: failoverWait,
		Logger:       logger,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

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

	srv := &http.Server{Addr: addr, Handler: rt}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", addr, "backends", len(bs),
			"probe_every", healthEvery.String(), "dead_after", deadAfter)
		for _, b := range bs {
			logger.Info("backend registered", "backend", b.Name, "url", b.URL)
		}
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	logger.Info("bye")
	return nil
}
