package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

func init() {
	register(Experiment{
		ID:    "scale",
		Paper: "§5 event-driven processing at scale: multi-core conservative parallel execution",
		Run:   ScaleBench,
	})
}

// scaleRunner abstracts one topology for the scale sweep: a label and a
// function that runs it at a given domain count / batching mode /
// partitioning mode. Both the leaf-spine HULA fabrics and the fat trees
// plug in here.
type scaleRunner struct {
	label    string
	switches int
	run      func(domains int, classic, loadAware bool, tel *telemetry.Collector) fabricMetrics
}

// ScaleBench sweeps fabric topology × partition domain count and checks
// the conservative parallel engine's claims at once:
//
//   - byte-identity: every row's digest must equal the 1-domain baseline
//     for the same fabric — across domain counts, adaptive vs classic
//     fixed-width windows ("Nc" rows), load-aware vs structured
//     assignment ("N*" rows).
//   - wall-clock scaling: recorded in the Perf samples / BENCH_scale.json
//     with per-core efficiency (speedup / min(domains, NumCPU)); the
//     rendered table stays host-independent.
//   - adaptive batching: each fabric's widest sweep runs a classic
//     fixed-width twin and records barrier_reduction = classic barriers /
//     adaptive barriers on the adaptive sample. On the latency-diverse
//     fat trees this is the honest measure of what window batching buys
//     on a host without spare cores.
//
// The fat trees are the paper-scale proof: ft8 is an 80-switch k=8
// fat tree whose rolling shuffle workload pushes millions of packets
// through the fabric per run.
//
// Rows run serially, never through RunParallel: each row should own the
// machine so its wall-clock sample means something.
func ScaleBench() *Result {
	res := &Result{
		ID:    "scale",
		Title: "parallel simulation scaling: fabric size x domain count",
		Cols:  []string{"fabric", "domains", "switches", "cycles", "tx packets", "digest", "identical"},
	}

	type fab struct {
		tors, spines, flows int
		rate                sim.Rate
		horizon             sim.Time
	}
	var runners []scaleRunner
	for _, f := range []fab{
		{tors: 4, spines: 4, flows: 12, rate: 500 * sim.Mbps, horizon: 20 * sim.Millisecond},
		{tors: 8, spines: 8, flows: 28, rate: 400 * sim.Mbps, horizon: 20 * sim.Millisecond},
	} {
		f := f
		label := fmt.Sprintf("%dx%d", f.tors, f.spines)
		runners = append(runners, scaleRunner{
			label: label, switches: f.tors + f.spines,
			run: func(domains int, classic, loadAware bool, tel *telemetry.Collector) fabricMetrics {
				return runHULAFabric(fabricSpec{
					tors: f.tors, spines: f.spines,
					probePeriod: 200 * sim.Microsecond, horizon: f.horizon,
					flows: f.flows, flowRate: f.rate,
					domains: domains, classic: classic, loadAware: loadAware,
					tel: tel,
				})
			},
		})
	}
	for _, ft := range []fatTreeSpec{
		{k: 4, horizon: 24 * sim.Millisecond, slot: 250 * sim.Microsecond,
			hostRate: 1120 * sim.Mbps, interGap: 150 * sim.Microsecond},
		{k: 8, horizon: 96 * sim.Millisecond, slot: 250 * sim.Microsecond,
			hostRate: 1120 * sim.Mbps, interGap: 150 * sim.Microsecond},
	} {
		ft := ft
		runners = append(runners, scaleRunner{
			label: fmt.Sprintf("ft%d", ft.k), switches: ft.switches(),
			run: func(domains int, classic, loadAware bool, tel *telemetry.Collector) fabricMetrics {
				spec := ft
				spec.domains, spec.classic, spec.loadAware, spec.tel = domains, classic, loadAware, tel
				return runFatTree(spec)
			},
		})
	}

	effCores := func(domains int) float64 {
		n := runtime.NumCPU()
		if domains < n {
			n = domains
		}
		if n < 1 {
			n = 1
		}
		return float64(n)
	}

	for _, r := range runners {
		var base fabricMetrics
		var baseWall time.Duration
		sample := func(m fabricMetrics, wall time.Duration, label string, domains int) *PerfSample {
			res.Perf = append(res.Perf, PerfSample{
				Label: label, Domains: domains,
				WallSeconds:  wall.Seconds(),
				Cycles:       m.cycles,
				CyclesPerSec: float64(m.cycles) / wall.Seconds(),
				Speedup:      baseWall.Seconds() / wall.Seconds(),
				Efficiency:   baseWall.Seconds() / wall.Seconds() / effCores(domains),
				Windows:      m.windows,
				Barriers:     m.barriers,
			})
			return &res.Perf[len(res.Perf)-1]
		}
		row := func(m fabricMetrics, domainsCell string, baseline bool) {
			ident := "baseline"
			if !baseline {
				ident = "yes"
				if m.ident() != base.ident() {
					ident = "NO"
				}
			}
			res.AddRow(r.label, domainsCell, d(r.switches),
				d(m.cycles), d(m.txPackets), fmt.Sprintf("%016x", m.digest), ident)
		}
		timed := func(domains int, classic, loadAware bool, tag string) (fabricMetrics, time.Duration) {
			start := time.Now()
			m := r.run(domains, classic, loadAware,
				trialCollector(fmt.Sprintf("scale/%s-%s", r.label, tag)))
			return m, time.Since(start)
		}

		// Adaptive sweep: 1 (baseline), 2, 4 domains.
		var adaptive4 *PerfSample
		for di, domains := range []int{1, 2, 4} {
			m, wall := timed(domains, false, false, fmt.Sprintf("d%d", domains))
			if di == 0 {
				base, baseWall = m, wall
			}
			row(m, d(domains), di == 0)
			s := sample(m, wall, r.label, domains)
			if domains == 4 {
				adaptive4 = s
			}
		}

		// Classic fixed-width twin at 4 domains ("4c"): same simulation,
		// no window batching. Its barrier count against the adaptive run's
		// is the batching payoff, recorded on the adaptive sample.
		mc, wallc := timed(4, true, false, "d4c")
		row(mc, "4c", false)
		sample(mc, wallc, r.label+"-classic", 4)
		if adaptive4 != nil && adaptive4.Barriers > 0 {
			adaptive4.BarrierReduction = float64(mc.barriers) / float64(adaptive4.Barriers)
		}

		// Load-aware twin at 4 domains ("4*"): switches assigned to
		// domains by measured cycle load (calibration pass + PlanDomains)
		// instead of the structured plan. Assignment must never change
		// output.
		ma, walla := timed(4, false, true, "d4auto")
		row(ma, "4*", false)
		sample(ma, walla, r.label+"-auto", 4)
	}

	res.Notef("digest folds every switch/link/host counter; 'identical' checks it against the 1-domain baseline")
	res.Notef("'Nc' rows force classic fixed-width windows, 'N*' rows use load-aware domain assignment; both must stay byte-identical")
	res.Notef("wall-clock, speedup, per-core efficiency, and barrier_reduction are host-dependent and live in the Perf samples (make bench-json)")
	res.Notef("rows run serially so each perf sample owns the machine; speedup tracks available cores")
	return res
}
