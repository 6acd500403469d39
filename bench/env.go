package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord is written into every result file so that two results can be
// judged comparable before their numbers are.
type envRecord struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Conns      int     `json:"conns"` // C = min(2, nproc)
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1_at_start"`
	// NoisyHost is set when the 1-minute load average at start exceeded
	// nproc. The run is still reported.
	NoisyHost bool `json:"noisy_host"`
}

// conns is C, the number of client connections (and campaign workers):
// the load generator shares the machine with the server under test, so
// it never runs more driver goroutines than there are CPUs.
func conns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

func readEnv() envRecord {
	e := envRecord{
		Commit:     gitHead(".git"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		Conns:      conns(),
	}
	if e.GOGC == "" {
		e.GOGC = "default"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.NoisyHost = e.Load1 > float64(e.NumCPU)
	return e
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident high-water mark from the
// current resident size, so that rss_mb is the peak of the phases that
// follow and not of the repeated set-ups before them. Where the kernel
// refuses, rss_mb is the whole process's peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// usage is a snapshot of the process-wide costs the end-to-end metrics
// charge per op.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func snapUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// gitHead reads the checked-out commit from a .git directory without
// running git: `go run` does not stamp VCS information into the binary,
// and the benchmark starts no process but its own children. "unknown"
// when the working directory is not the root of a repository.
func gitHead(dir string) string {
	head, err := os.ReadFile(dir + "/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached: HEAD holds the hash
	}
	if b, err := os.ReadFile(dir + "/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(dir + "/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}
