package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// stamp records where and from what a set of numbers was measured. Every
// output carries one; load averages bracket the run because a busy host is
// the first suspect when two runs disagree.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end,omitempty"`
}

func newStamp() stamp {
	return stamp{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		LoadStart:  loadavg(),
	}
}

func (s stamp) String() string {
	load := "loadavg at start " + s.LoadStart
	if s.LoadEnd != "" {
		load += ", at end " + s.LoadEnd
	}
	return fmt.Sprintf("commit=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q %s",
		s.Commit, s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.CPUModel, load)
}

// commit is the revision the binary was built from, as the go tool stamped
// it; "unknown" outside a git checkout (the driver's checkouts are not one).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func loadavg() string {
	blob, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(blob))[:3], " ")
}

// procField returns the value of the first "key : value" line of a /proc
// file, "unknown" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}
