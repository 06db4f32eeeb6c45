// Command benchdiff compares BENCH_<experiment>.json reports (see
// internal/bench.Report) and prints the malloc, allocated-bytes, wall-time
// and cycles-per-second deltas, so a perf change can be judged in one
// glance. It takes one or more OLD NEW pairs:
//
//	benchdiff BENCH_scale.before.json BENCH_scale.json
//	benchdiff BENCH_scale.before.json BENCH_scale.json \
//	          BENCH_up4.before.json   BENCH_up4.json
//
// Below the aggregates it diffs the per-sample cycles-per-second rows,
// matched by (label, domains): rows present only in the new report are
// listed as "new". Samples carrying a per_core_efficiency value (speedup
// over min(domains, num_cpu) usable cores) get an eff column, and a
// matched multi-domain row whose speedup fell below 0.7x of the old
// report's is a scaling regression: reported on stderr and exits
// non-zero.
//
// The deterministic experiment table embedded in each report is also
// compared: a perf optimization must not change a single cell, so a table
// mismatch is reported on stderr and exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func load(path string) *bench.Report {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var rep bench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
		os.Exit(2)
	}
	return &rep
}

// row prints one metric line: old, new, and the improvement factor in the
// direction where bigger is better (lowerIsBetter flips the ratio).
func row(name string, oldV, newV float64, unit string, lowerIsBetter bool) {
	ratio := 0.0
	switch {
	case lowerIsBetter && newV > 0:
		ratio = oldV / newV
	case !lowerIsBetter && oldV > 0:
		ratio = newV / oldV
	}
	arrow := "better"
	if ratio < 1 {
		arrow = "worse"
	}
	if ratio == 0 {
		fmt.Printf("%-14s %18s -> %-18s\n", name, fmtNum(oldV, unit), fmtNum(newV, unit))
		return
	}
	fmt.Printf("%-14s %18s -> %-18s %6.2fx %s\n",
		name, fmtNum(oldV, unit), fmtNum(newV, unit), ratio, arrow)
}

func fmtNum(v float64, unit string) string {
	if unit == "" && v == float64(uint64(v)) {
		return fmt.Sprintf("%d", uint64(v))
	}
	return fmt.Sprintf("%.2f%s", v, unit)
}

// perfKey matches samples across reports. Multiple samples may share a
// key (repeated labels are taken in order of appearance).
type perfKey struct {
	label   string
	domains int
}

// speedupFloor is the matched-row scaling gate: a new speedup below this
// fraction of the old one fails the diff.
const speedupFloor = 0.7

// annotate renders a sample's scaling columns: per-core efficiency and,
// where recorded, the barrier reduction over classic fixed windows.
func annotate(p bench.PerfSample) string {
	s := ""
	if p.Efficiency > 0 {
		s += fmt.Sprintf("  eff=%.2f", p.Efficiency)
	}
	if p.BarrierReduction > 0 {
		s += fmt.Sprintf("  barriers=%.2fx", p.BarrierReduction)
	}
	return s
}

// diffPerf prints per-sample cycles-per-second deltas, matching new
// samples against old ones by (label, domains) occurrence order. It
// returns false when a matched multi-domain row's speedup regressed
// below speedupFloor of the old report's.
func diffPerf(oldRep, newRep *bench.Report) bool {
	ok := true
	if len(newRep.Perf) == 0 {
		return ok
	}
	oldByKey := make(map[perfKey][]bench.PerfSample)
	for _, p := range oldRep.Perf {
		k := perfKey{p.Label, p.Domains}
		oldByKey[k] = append(oldByKey[k], p)
	}
	for _, p := range newRep.Perf {
		k := perfKey{p.Label, p.Domains}
		name := fmt.Sprintf("  %s d%d", p.Label, p.Domains)
		if olds := oldByKey[k]; len(olds) > 0 {
			old := olds[0]
			row(name+annotate(p), old.CyclesPerSec, p.CyclesPerSec, "", false)
			if p.Domains > 1 && old.Speedup > 0 && p.Speedup > 0 && p.Speedup < speedupFloor*old.Speedup {
				fmt.Fprintf(os.Stderr,
					"benchdiff: SCALING REGRESSION: %s d%d speedup %.2fx -> %.2fx (below %.0f%% of old)\n",
					p.Label, p.Domains, old.Speedup, p.Speedup, 100*speedupFloor)
				ok = false
			}
			oldByKey[k] = olds[1:]
		} else {
			fmt.Printf("%-14s %18s -> %-18s (new)%s\n", name, "-", fmtNum(p.CyclesPerSec, ""), annotate(p))
		}
	}
	return ok
}

// diffPair compares one OLD/NEW report pair and reports whether the
// deterministic halves (table, telemetry digest) are unchanged.
func diffPair(oldPath, newPath string) bool {
	oldRep, newRep := load(oldPath), load(newPath)
	if oldRep.Experiment != newRep.Experiment {
		fmt.Fprintf(os.Stderr, "benchdiff: comparing different experiments: %q vs %q\n",
			oldRep.Experiment, newRep.Experiment)
	}
	fmt.Printf("experiment %s: %s -> %s\n", newRep.Experiment, oldPath, newPath)
	row("mallocs", float64(oldRep.Mallocs), float64(newRep.Mallocs), "", true)
	row("alloc_bytes", float64(oldRep.AllocBytes), float64(newRep.AllocBytes), "", true)
	row("wall_seconds", oldRep.WallSeconds, newRep.WallSeconds, "s", true)
	if oldRep.CyclesPerSec > 0 || newRep.CyclesPerSec > 0 {
		row("cycles_per_sec", oldRep.CyclesPerSec, newRep.CyclesPerSec, "", false)
	}
	ok := diffPerf(oldRep, newRep)
	if oldRep.Table != newRep.Table {
		fmt.Fprintln(os.Stderr, "benchdiff: DETERMINISTIC TABLE CHANGED — this is not a pure perf change")
		ok = false
	} else {
		fmt.Println("table: identical")
	}
	if oldRep.Telemetry != nil && newRep.Telemetry != nil {
		if oldRep.Telemetry.Digest != newRep.Telemetry.Digest {
			fmt.Fprintf(os.Stderr, "benchdiff: TELEMETRY DIGEST CHANGED: %s -> %s\n",
				oldRep.Telemetry.Digest, newRep.Telemetry.Digest)
			ok = false
		} else {
			fmt.Println("telemetry digest: identical")
		}
	}
	return ok
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json [OLD.json NEW.json ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 2 || flag.NArg()%2 != 0 {
		flag.Usage()
		os.Exit(2)
	}
	ok := true
	for i := 0; i < flag.NArg(); i += 2 {
		if i > 0 {
			fmt.Println()
		}
		if !diffPair(flag.Arg(i), flag.Arg(i+1)) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}
