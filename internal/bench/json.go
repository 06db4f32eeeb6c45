package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// Report is the machine-readable record of one experiment run, written
// as BENCH_<experiment>.json. The deterministic table text lives in
// Result; the report adds the host-dependent half — wall time, allocation
// churn, and any wall-clock Perf samples the experiment recorded.
type Report struct {
	Experiment  string  `json:"experiment"`
	Title       string  `json:"title"`
	WallSeconds float64 `json:"wall_seconds"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
	Parallelism int     `json:"parallelism"`
	Domains     int     `json:"domains"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	// CyclesPerSec aggregates the Perf samples (total simulated switch
	// cycles over total sample wall time); 0 when the experiment records
	// no samples.
	CyclesPerSec float64      `json:"cycles_per_sec,omitempty"`
	Perf         []PerfSample `json:"perf,omitempty"`
	// Telemetry summarizes the runs collected while the experiment ran
	// (present only when evbench telemetry is enabled). The digest is the
	// deterministic half — it must match across -parallel and -domains;
	// the record counts are deterministic too, the summary merely compact.
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`
	Table     string             `json:"table"`
}

// RunReport executes the experiment under wall-clock and allocation
// measurement and returns its Result alongside the filled-in Report.
func RunReport(e Experiment) (*Result, *Report) {
	if TelemetryEnabled() {
		// Scope the telemetry section to this experiment's trials.
		ResetTelemetryRuns()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res := e.Run()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	rep := &Report{
		Experiment:  e.ID,
		Title:       res.Title,
		WallSeconds: wall.Seconds(),
		AllocBytes:  m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:     m1.Mallocs - m0.Mallocs,
		Parallelism: Parallelism(),
		Domains:     Domains(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Perf:        res.Perf,
		Table:       res.String(),
	}
	if TelemetryEnabled() {
		if sum, err := TelemetrySummary(); err == nil && sum.Runs > 0 {
			rep.Telemetry = &sum
		}
	}
	var cycles uint64
	var perfWall float64
	for _, p := range res.Perf {
		cycles += p.Cycles
		perfWall += p.WallSeconds
	}
	if perfWall > 0 {
		rep.CyclesPerSec = float64(cycles) / perfWall
	}
	return res, rep
}

// WriteReport writes the report as BENCH_<experiment>.json under dir and
// returns the file path.
func WriteReport(dir string, rep *Report) (string, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+rep.Experiment+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
