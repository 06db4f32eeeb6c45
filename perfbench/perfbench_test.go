package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestMain lets measure's child processes, which re-run the test binary,
// execute one rep as the benchmark binary would.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(child(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTailPercentileBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		v      float64
		beyond int
		ok     bool
	}{
		{100, 90, 90, 10, true},  // exactly ten samples above the p90
		{99, 90, 90, 9, false},   // one short of the rule
		{384, 90, 346, 38, true}, // ft8's slices per run
		{20, 50, 10, 10, true},
		{1, 90, 1, 0, false},
	} {
		v, beyond, ok := tailPercentile(seq(tc.n), tc.p)
		if v != tc.v || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("n=%d p%.0f: got (%v, %d, %v), want (%v, %d, %v)", tc.n, tc.p, v, beyond, ok, tc.v, tc.beyond, tc.ok)
		}
	}
	// Ties at the percentile do not count as beyond it.
	flat := make([]float64, 200)
	if v, beyond, ok := tailPercentile(flat, 90); v != 0 || beyond != 0 || ok {
		t.Errorf("flat samples: got (%v, %d, %v), want (0, 0, false)", v, beyond, ok)
	}
	if _, _, ok := tailPercentile(nil, 90); ok {
		t.Error("no samples must not satisfy the rule")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd: %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even: %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty: %v", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	s := time.Second
	// Serial run: the sampled children are carved out of the run.
	run := &span{Name: "run", Wall: 10 * s, Threads: 1}
	run.add(&span{Name: "pisa.handler", Wall: 2 * s})
	run.add(&span{Name: "netsim.host_send", Wall: 1 * s})
	if got := run.self(); got != 7*s {
		t.Errorf("serial run self = %v, want 7s", got)
	}
	if got := run.selfTotal(); got != run.Wall {
		t.Errorf("serial thread-time = %v, want the run wall %v", got, run.Wall)
	}

	// Partitioned run: the window span fans out to two domains, so its
	// children are measured in thread-time against twice its wall.
	prun := &span{Name: "run", Wall: 10 * s, Threads: 1}
	win := prun.add(&span{Name: "part.window", Wall: 8 * s, Threads: 2})
	win.add(&span{Name: "pisa.handler", Wall: 3 * s})
	win.add(&span{Name: "netsim.host_send", Wall: 1 * s})
	win.add(&span{Name: "part.stall", Wall: 5 * s})
	if got := prun.self(); got != 2*s {
		t.Errorf("partitioned run self = %v, want 2s (outside windows)", got)
	}
	if got := win.self(); got != 7*s {
		t.Errorf("window self = %v, want 16s-3s-1s-5s = 7s", got)
	}
	if got, want := prun.selfTotal(), 18*s; got != want {
		t.Errorf("thread-time = %v, want %v (10s run + 8s second domain)", got, want)
	}
	prun.walk(0, func(sp *span, _ int) {
		var kids time.Duration
		for _, ch := range sp.Children {
			kids += ch.Wall
		}
		if sp.self()+kids != sp.capacity() {
			t.Errorf("%s: self %v + children %v != capacity %v", sp.Name, sp.self(), kids, sp.capacity())
		}
	})
	if err := prun.reconcileError(0); err != nil {
		t.Errorf("consistent tree reported %v", err)
	}
	win.add(&span{Name: "overlap", Wall: 8 * s})
	if err := prun.reconcileError(time.Millisecond); err == nil {
		t.Error("children exceeding their parent's capacity must be reported")
	}
	if prun.find("part.stall") == nil || prun.find("missing") != nil {
		t.Error("find")
	}
}

func TestValidMetricName(t *testing.T) {
	for _, ok := range []string{"cycles_per_s", "setup_s", "core.events_merged.BufferEnqueue",
		"part.window_us_p90", "a", "9x", "x-y.z_w"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", "a:b", string(long)} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the binary must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

func names(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// shortHorizon keeps each smoke run well under a second of host time.
func shortHorizon(name string) sim.Time {
	if name == "up4-chain" {
		return 600 * sim.Microsecond
	}
	return 3 * sim.Millisecond
}

// TestDeterminismSmoke runs every workload at a short horizon: the same
// seed gives the same digest, the slice probe and the tracer leave it
// unchanged, the partitioned fat tree matches the serial one, and the
// reported metrics are exactly the ones BENCHMARK.json declares.
func TestDeterminismSmoke(t *testing.T) {
	spec := loadSpec(t)
	digests := map[string]uint64{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := buildConfig{seed: 7, horizon: shortHorizon(w.name)}
			a, err := runRep(w, cfg, false, false)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runRep(w, cfg, true, false)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest != b.Digest || a.Cycles != b.Cycles || a.Cycles == 0 {
				t.Fatalf("same seed, different output: %016x/%d vs %016x/%d (probe on the second)",
					a.Digest, a.Cycles, b.Digest, b.Cycles)
			}
			if len(b.Slices) != w.slices {
				t.Errorf("%d slices, want %d", len(b.Slices), w.slices)
			}
			other, err := runRep(w, buildConfig{seed: 8, horizon: cfg.horizon}, false, false)
			if err != nil {
				t.Fatal(err)
			}
			if other.Digest == a.Digest {
				t.Errorf("seeds 7 and 8 gave the same inputs (digest %016x)", a.Digest)
			}
			digests[w.name] = a.Digest

			tr := traced(w, cfg, io.Discard)
			if len(tr.Failures) > 0 {
				t.Fatalf("traced run: %v", tr.Failures)
			}
			if tr.Digest != a.Digest {
				t.Errorf("traced digest %016x, untraced %016x", tr.Digest, a.Digest)
			}
			res := tr.result()
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced result %+v", res)
			}
			var want []string
			for _, m := range spec.PerLayer {
				want = append(want, m.Name)
			}
			sort.Strings(want)
			if got := names(res.Metrics); !slices.Equal(got, want) {
				t.Errorf("traced metrics %v\nBENCHMARK.json per_layer %v", got, want)
			}
			for _, m := range spec.PerLayer {
				if got := res.Metrics[m.Name].Unit; got != m.Unit {
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got, m.Unit)
				}
			}
		})
	}
	if digests["ft8"] != digests["ft8-auto2"] {
		t.Errorf("ft8-auto2 digest %016x differs from ft8 %016x", digests["ft8-auto2"], digests["ft8"])
	}
}

func TestEndToEndMetricsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	w, _ := lookupWorkload("up4-chain")
	m := measure(w, buildConfig{seed: 3, horizon: shortHorizon(w.name)}, time.Nanosecond, io.Discard)
	res := m.result()
	if res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("result %+v, failures %v", res, m.Failures)
	}
	var want []string
	for _, e := range spec.EndToEnd {
		want = append(want, e.Name)
		if got := res.Metrics[e.Name]; got.Unit != e.Unit || got.Value <= 0 {
			t.Errorf("%s: got %+v, BENCHMARK.json unit %q", e.Name, got, e.Unit)
		}
	}
	sort.Strings(want)
	if got := names(res.Metrics); !slices.Equal(got, want) {
		t.Errorf("metrics %v, BENCHMARK.json end_to_end %v", got, want)
	}
	if len(m.Setups) != minSetups {
		t.Errorf("%d set-ups timed, want %d", len(m.Setups), minSetups)
	}
	var workloadNames []string
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the binary", w.Name)
		}
	}
	if len(workloadNames) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the binary has %d workloads", workloadNames, len(workloads))
	}
}

func TestGoldenOnlyAtFullHorizon(t *testing.T) {
	if _, ok := goldenFor("ft8", 0); !ok {
		t.Fatal("ft8 has no seed-0 golden")
	}
	if _, ok := goldenFor("ft8", 1); ok {
		t.Error("golden reported for a seed never recorded")
	}
	g, _ := goldenFor("ft8", 0)
	if a, _ := goldenFor("ft8-auto2", 0); a != g {
		t.Errorf("ft8-auto2 golden %+v differs from ft8 %+v", a, g)
	}
	c := newChecker(workloads[0], buildConfig{horizon: sim.Millisecond}, io.Discard)
	if c.want != nil {
		t.Error("a short horizon must not be judged against the full-horizon golden")
	}
}

func TestStatusKB(t *testing.T) {
	status := "Name:\tperfbench\nVmHWM:\t    6112 kB\nRssAnon:\t    2416 kB\nRssFile:\t    3696 kB\n"
	if got := statusKB(status, "VmHWM:"); got != 6112 {
		t.Errorf("VmHWM = %d", got)
	}
	if got := statusKB(status, "RssFile:"); got != 3696 {
		t.Errorf("RssFile = %d", got)
	}
	if got := statusKB(status, "VmRSS:"); got != 0 {
		t.Errorf("missing field = %d", got)
	}
	if m := maxRSSMB(); m <= 0 {
		t.Errorf("maxRSSMB = %v", m)
	}
}
