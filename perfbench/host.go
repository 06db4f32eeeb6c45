package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo fingerprints the machine a report was measured on. Results
// compare only within one host class: the same CPU count, GOMAXPROCS,
// CPU model and platform.
type hostInfo struct {
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	CPUModel   string     `json:"cpu_model"`
	GoVersion  string     `json:"go_version"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	LoadAvg    [3]float64 `json:"loadavg_at_start"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		for i := range h.LoadAvg {
			h.LoadAvg[i] = float64(si.Loads[i]) / (1 << 16)
		}
	}
	return h
}

// class is the key results are compared under.
func (h hostInfo) class() string {
	return fmt.Sprintf("%s/%s cpus=%d gomaxprocs=%d model=%q", h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.CPUModel)
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMB is the process's peak resident set in MiB, less the pages it
// maps from files: the binary's own text and data. Those are 3 to 4 MiB
// whose residency follows the page cache, not the simulator, and on the
// small chain workload they were a third of the peak and swung it by
// 25 %. The rest is what the run itself allocated. Without
// /proc/self/status it falls back to getrusage's peak, files included.
func maxRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		hwm, file := statusKB(string(b), "VmHWM:"), statusKB(string(b), "RssFile:")
		if hwm > 0 {
			return float64(hwm-file) / 1024
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// statusKB returns the kB value of a /proc/<pid>/status field, or 0.
func statusKB(status, field string) int64 {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			var v int64
			fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), &v)
			return v
		}
	}
	return 0
}
