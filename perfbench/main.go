// Command perfbench is the repository's benchmark: it builds each
// workload through the public APIs of the simulator's layers, times
// untraced Network.Run calls for the end-to-end metrics, checks every
// run's output against recorded golden values, and with -trace 1 makes a
// separate traced run that attributes host time to each layer.
//
//	go run . -workload ft8 -seed 0 -seconds 38 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Everything above it is the
// human-readable report: host fingerprint, per-run figures, the baseline
// comparison and, for traced runs, the per-layer table. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// outDir is where reports and span files go, relative to the directory
// the benchmark runs in (the repository root).
var outDir = filepath.Join(".bench_build", "perfbench-out")

// minSetups is how many set-ups a timed invocation measures at least,
// adding set-up-only rounds when fewer timed runs fit its budget.
const minSetups = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(child(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "ft8", "workload: ft8, ft8-auto2 or up4-chain")
	seed := fs.Uint64("seed", 0, "input seed (golden digests are recorded for seed 0)")
	seconds := fs.Int("seconds", 38, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}

	host := fingerprint()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	hj, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hj)

	var res result
	var report any
	if *trace == 0 {
		m := measure(w, buildConfig{seed: *seed}, time.Duration(*seconds)*time.Second, stdout)
		res, report = m.result(), m
		compareBaseline(stdout, host, w.name, res.Metrics)
	} else {
		t := traced(w, buildConfig{seed: *seed}, stdout)
		res, report = t.result(), t
		if t.spans != nil {
			writeSpans(stderr, filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed)), t.spans)
		}
	}
	writeReport(stderr, filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, *seed, *trace)),
		map[string]any{"host": host, "workload": w.name, "seed": *seed, "result": res, "detail": report})
	for name := range res.Metrics {
		if !validMetricName(name) {
			fmt.Fprintf(stderr, "perfbench: invalid metric name %q\n", name)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// checker judges a run's output against the golden digest and cycle
// count when the seed has them. Other seeds have no golden: every run of
// the invocation must then agree with its first, and final checks the
// partitioned workload against a serial run of the same fabric.
type checker struct {
	w     workloadDef
	cfg   buildConfig
	log   io.Writer
	want  *golden
	first *golden
}

func newChecker(w workloadDef, cfg buildConfig, log io.Writer) *checker {
	c := &checker{w: w, cfg: buildConfig{seed: cfg.seed, horizon: cfg.horizon}, log: log}
	if g, ok := goldenFor(w.name, cfg.seed); ok && cfg.horizon == 0 {
		c.want = &g
	}
	return c
}

func (c *checker) check(r repResult) error {
	got := golden{Digest: r.Digest, Cycles: r.Cycles}
	want := c.want
	if want == nil {
		if c.first == nil {
			c.first = &got
		}
		want = c.first
	}
	if got != *want {
		return fmt.Errorf("output mismatch: digest %016x cycles %d, want digest %016x cycles %d",
			got.Digest, got.Cycles, want.Digest, want.Cycles)
	}
	return nil
}

// final runs the checks that need a reference run: without a golden,
// ft8-auto2 must reproduce the serial ft8 fabric bit for bit. The
// reference runs once, untimed, after the timed runs.
func (c *checker) final() error {
	if c.want != nil || c.first == nil || c.w.name != "ft8-auto2" {
		return nil
	}
	fmt.Fprintf(c.log, "verify: serial ft8 reference for seed %d\n", c.cfg.seed)
	sr, err := childRep("ft8", c.cfg, modeRun)
	if err != nil {
		return fmt.Errorf("serial reference: %v", err)
	}
	if ref := (golden{Digest: sr.Digest, Cycles: sr.Cycles}); ref != *c.first {
		return fmt.Errorf("partitioned digest %016x cycles %d differ from serial %016x cycles %d",
			c.first.Digest, c.first.Cycles, ref.Digest, ref.Cycles)
	}
	return nil
}

// measurement is a --trace 0 invocation's record.
type measurement struct {
	Runs     []repResult
	Setups   []time.Duration
	Failures []string
	Attempts int
	SliceP90 float64
	Beyond   int
	Slices   int
}

// measure repeats timed runs, each a set-up plus one untraced
// Network.Run in a fresh process, until one more run would overrun the
// budget (at least one run). It then adds set-up-only processes until
// minSetups set-ups were timed. Fresh processes give every run the same
// starting heap, so set-up time and peak memory describe one run as a
// user would start it, not the leftovers of the previous one.
func measure(w workloadDef, cfg buildConfig, budget time.Duration, log io.Writer) *measurement {
	m := &measurement{}
	chk := newChecker(w, cfg, log)
	var slices []float64
	start := time.Now()
	var last time.Duration
	for m.Attempts == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		r, err := childRep(w.name, cfg, modeRun)
		last = time.Since(t0)
		m.Attempts++
		if err == nil {
			err = chk.check(r)
		}
		if err != nil {
			m.Failures = append(m.Failures, err.Error())
			fmt.Fprintf(log, "run %d FAILED: %v\n", m.Attempts, err)
			continue
		}
		m.Runs = append(m.Runs, r)
		m.Setups = append(m.Setups, r.Setup)
		slices = append(slices, r.Slices...)
		fmt.Fprintf(log, "run %d: setup %.4fs run %.4fs cycles %d digest %016x cycles/s %.0f rss %.1f MiB\n",
			m.Attempts, r.Setup.Seconds(), r.RunWall.Seconds(), r.Cycles, r.Digest, r.cyclesPerSec(), r.MaxRSSMB)
	}
	if err := chk.final(); err != nil {
		// Every timed run produced the output the reference rejects.
		fmt.Fprintf(log, "FAILED: %v\n", err)
		for range m.Runs {
			m.Failures = append(m.Failures, err.Error())
		}
		m.Runs = nil
	}
	for len(m.Setups) < minSetups && len(m.Failures) == 0 {
		r, err := childRep(w.name, cfg, modeSetup)
		if err != nil {
			m.Failures = append(m.Failures, err.Error())
			break
		}
		m.Setups = append(m.Setups, r.Setup)
	}
	m.SliceP90, m.Beyond, _ = tailPercentile(slices, 90)
	m.Slices = len(slices)
	fmt.Fprintf(log, "slices %d, p90 %.4f ms with %d beyond; set-ups %d\n",
		m.Slices, m.SliceP90, m.Beyond, len(m.Setups))
	return m
}

func (m *measurement) result() result {
	var cps, rss, setups []float64
	for _, r := range m.Runs {
		cps = append(cps, r.cyclesPerSec())
		rss = append(rss, r.MaxRSSMB)
	}
	for _, s := range m.Setups {
		setups = append(setups, s.Seconds())
	}
	failed := len(m.Failures)
	if failed > m.Attempts {
		failed = m.Attempts
	}
	// The tail rule is part of correctness: a p90 with fewer than
	// minBeyond slower slices is not a tail measurement.
	ok := failed == 0 && m.Beyond >= minBeyond
	return result{
		Correct: ok, Attempted: m.Attempts, Failed: failed,
		Metrics: map[string]metric{
			"cycles_per_s": {median(cps), "1/s"},
			"slice_ms_p90": {m.SliceP90, "ms"},
			"setup_s":      {median(setups), "s"},
			"max_rss_mb":   {median(rss), "MiB"},
		},
	}
}

// compareBaseline prints this invocation against the recorded baseline
// of the same host class, or says why it does not.
func compareBaseline(w io.Writer, host hostInfo, name string, got map[string]metric) {
	b := loadBaseline()
	if b == nil {
		fmt.Fprintln(w, "baseline: none recorded")
		return
	}
	if b.HostClass != host.class() {
		fmt.Fprintf(w, "baseline: host class differs (baseline %s, this host %s); not comparing\n", b.HostClass, host.class())
		return
	}
	ws, ok := b.Workloads[name]
	if !ok {
		fmt.Fprintf(w, "baseline: no entry for %s\n", name)
		return
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s, ok := ws[n]
		if !ok || s.Median == 0 {
			continue
		}
		fmt.Fprintf(w, "baseline %-14s median %.6g [q1 %.6g q3 %.6g] now %.6g (x%.3f)\n",
			n, s.Median, s.Q1, s.Q3, got[n].Value, got[n].Value/s.Median)
	}
}

func writeReport(stderr io.Writer, path string, v any) {
	if err := writeJSON(path, v); err != nil {
		fmt.Fprintf(stderr, "perfbench: report not written: %v\n", err)
	}
}

// spanRecord is one span as written to the spans file.
type spanRecord struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartS  float64 `json:"start_s"`
	WallS   float64 `json:"wall_s"`
	Threads int     `json:"threads"`
	SelfS   float64 `json:"self_s"`
	Calls   uint64  `json:"calls,omitempty"`
	Sampled uint64  `json:"sampled,omitempty"`
}

// writeSpans writes the traced run's span tree, kept in memory until
// now, as a flat list with parent links.
func writeSpans(stderr io.Writer, path string, root *span) {
	var recs []spanRecord
	var visit func(s *span, parent string)
	visit = func(s *span, parent string) {
		recs = append(recs, spanRecord{Name: s.Name, Parent: parent, StartS: s.Start.Seconds(),
			WallS: s.Wall.Seconds(), Threads: s.threads(), SelfS: s.self().Seconds(),
			Calls: s.Calls, Sampled: s.Sampled})
		for _, ch := range s.Children {
			visit(ch, s.Name)
		}
	}
	visit(root, "")
	if err := writeJSON(path, recs); err != nil {
		fmt.Fprintf(stderr, "perfbench: spans not written: %v\n", err)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
