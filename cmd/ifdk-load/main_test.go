package main

import (
	"net"
	"strings"
	"testing"
	"time"
)

// One client submits in order, so the two duplicate slots (jobs 3 and 6
// repeat jobs 0 and 1) always find their original in the result cache.
func TestRunInProcess(t *testing.T) {
	s, err := run(loadConfig{jobs: 7, clients: 1, nx: 16, dupEvery: 3, verifyEvery: 4,
		workers: 2, queueCap: 8, timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if s.ok != 7 || s.failed != 0 {
		t.Errorf("%d ok, %d failed, want 7 and 0", s.ok, s.failed)
	}
	if s.cacheHits != 2 {
		t.Errorf("%d cache hits, want the 2 duplicate slots", s.cacheHits)
	}
	if s.verified == 0 || s.worstRMSE > 1e-5 {
		t.Errorf("%d jobs verified, worst relative RMSE %g", s.verified, s.worstRMSE)
	}
	if s.cancelProbe == "" {
		t.Error("cancel probe did not settle")
	}
}

// Against a port nobody listens on every submission fails: run must name
// both the failed jobs and the cancel probe that never settled.
func TestRunReportsFailures(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	ln.Close()

	s, err := run(loadConfig{addr: addr, jobs: 3, clients: 2, nx: 16, timeout: 10 * time.Second})
	if err == nil {
		t.Fatal("run against a closed port returned nil")
	}
	if s.failed != 3 || s.cancelProbe != "" {
		t.Errorf("%d failed, probe settled as %q; want 3 and unsettled", s.failed, s.cancelProbe)
	}
	for _, want := range []string{"3 jobs failed", "cancel probe"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
