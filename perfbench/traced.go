package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/telemetry/self"
)

// tracedRun is a --trace 1 invocation's record: one untraced reference
// run, then one traced run whose spans and layer counters give the
// per-layer metrics.
type tracedRun struct {
	Untraced repResult
	Digest   uint64
	Failures []string
	Layers   map[string]metric
	spans    *span
}

func traced(w workloadDef, cfg buildConfig, log io.Writer) *tracedRun {
	t := &tracedRun{Layers: map[string]metric{}}
	chk := newChecker(w, cfg, log)
	runtime.GC()
	u, err := runRep(w, cfg, false, false)
	if err == nil {
		err = chk.check(u)
	}
	if err == nil {
		err = chk.final()
	}
	if err != nil {
		t.fail(log, "untraced: "+err.Error())
		return t
	}
	t.Untraced = u
	fmt.Fprintf(log, "untraced: setup %.4fs run %.4fs cycles/s %.0f digest %016x\n",
		u.Setup.Seconds(), u.RunWall.Seconds(), u.cyclesPerSec(), u.Digest)
	runtime.GC()
	if err := t.tracedRep(w, cfg, chk, log); err != nil {
		t.fail(log, "traced: "+err.Error())
	}
	return t
}

func (t *tracedRun) fail(log io.Writer, msg string) {
	t.Failures = append(t.Failures, msg)
	fmt.Fprintf(log, "FAILED %s\n", msg)
}

// tracedRep sets up the workload with the tracer's wrappers, runs it
// with the self-metrics plane on, and verifies it, recording the setup,
// run and verify spans and every per-layer metric.
func (t *tracedRun) tracedRep(w workloadDef, cfg buildConfig, chk *checker, log io.Writer) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	tr := &tracer{}
	cfg.tr = tr
	origin := time.Now()
	root := &span{Name: "perfbench", Threads: 1}
	at := func(t0 time.Time) time.Duration { return t0.Sub(origin) }

	t0 := time.Now()
	in := w.setup(cfg)
	if in.part != nil {
		tr.watchPartition(in.part)
	}
	setup := root.add(&span{Name: "setup", Start: at(t0), Wall: time.Since(t0), Threads: 1})
	for _, c := range []struct {
		name string
		d    time.Duration
	}{
		{"setup.build", in.phases.Build}, {"setup.compile", in.phases.Compile},
		{"setup.calibrate", in.phases.Calibrate}, {"setup.arm", in.phases.Arm},
	} {
		setup.add(&span{Name: c.name, Wall: c.d, Threads: 1})
	}

	self.Reset()
	self.Enable()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	in.net.Run(in.horizon)
	runWall := time.Since(t1)
	runtime.ReadMemStats(&m1)
	self.Disable()

	run := root.add(&span{Name: "run", Start: at(t1), Wall: runWall, Threads: 1})
	hWall, hCalls, hSampled := estimate(tr.handlerSamplers())
	sWall, sCalls, sSampled := estimate(tr.sends)
	inner := run
	domains := 1
	var stall time.Duration
	if in.part != nil {
		domains = in.part.Domains()
		inner = run.add(&span{Name: "part.window", Wall: tr.windowWall, Threads: domains})
		for d := 0; d < domains; d++ {
			stall += time.Duration(self.DomainStallNS(d).Value())
		}
	}
	inner.add(&span{Name: "pisa.handler", Wall: hWall, Threads: 1, Calls: hCalls, Sampled: hSampled})
	inner.add(&span{Name: "netsim.host_send", Wall: sWall, Threads: 1, Calls: sCalls, Sampled: sSampled})
	if in.part != nil {
		inner.add(&span{Name: "part.stall", Wall: stall, Threads: 1})
	}

	t2 := time.Now()
	t.Digest = in.digest()
	cycles := in.cycles()
	var verr error
	if rep := faults.Audit(in.net); !rep.OK() {
		verr = fmt.Errorf("audit: %s", rep)
	} else if t.Digest != t.Untraced.Digest || cycles != t.Untraced.Cycles {
		verr = fmt.Errorf("traced digest %016x cycles %d differ from untraced %016x cycles %d",
			t.Digest, cycles, t.Untraced.Digest, t.Untraced.Cycles)
	} else {
		verr = chk.check(repResult{Digest: t.Digest, Cycles: cycles})
	}
	root.add(&span{Name: "verify", Start: at(t2), Wall: time.Since(t2), Threads: 1})
	root.Wall = time.Since(origin)
	t.spans = root
	if verr != nil {
		return verr
	}

	L := t.Layers
	set := func(name string, v float64, unit string) { L[name] = metric{v, unit} }
	secs := func(d time.Duration) float64 { return d.Seconds() }

	// sim: scheduler dispatch work (self plane deltas) and the run's own
	// time outside the sampled children.
	dispatches := float64(self.SchedDispatch.Value())
	set("sim.dispatches", dispatches, "count")
	set("sim.dispatches_per_cycle", ratio(dispatches, float64(cycles)), "ratio")
	set("sim.lane_arms", float64(self.SchedLaneArms.Value()), "count")
	set("sim.aux_arms", float64(self.SchedAuxArms.Value()), "count")
	set("run.wall_s", secs(runWall), "s")
	set("run.self_s", secs(run.self()), "s")
	set("run.cycles", float64(cycles), "count")

	// core: slot accounting and the event merger, from Switch.Stats.
	var pktSlots, emptySlots, drainSlots, evDropped uint64
	var merged [events.NumKinds]uint64
	var tmEnq, tmDrops uint64
	var tmPeak int
	for _, sw := range in.net.Switches() {
		st := sw.Stats()
		pktSlots += st.PacketSlots
		emptySlots += st.EmptySlots
		drainSlots += st.DrainSlots
		for k := 0; k < events.NumKinds; k++ {
			merged[k] += st.EventsMerged[k]
			evDropped += st.EventsDropped[k]
		}
		enq, _, drops, peak := sw.TM().Stats()
		tmEnq += enq
		tmDrops += drops
		tmPeak += peak
	}
	set("core.packet_slots", float64(pktSlots), "count")
	set("core.empty_slots", float64(emptySlots), "count")
	set("core.drain_slots", float64(drainSlots), "count")
	set("core.events_dropped", float64(evDropped), "count")
	for k := 0; k < events.NumKinds; k++ {
		set("core.events_merged."+events.Kind(k).String(), float64(merged[k]), "count")
	}
	occMean, occP90 := histStats(&self.BurstOcc)
	set("core.burst_occ_mean", occMean, "slots")
	set("core.burst_occ_p90", occP90, "slots")

	// pisa/p4: sampled handler time and per-kind calls.
	var perKind [events.NumKinds]uint64
	for _, h := range tr.handlers {
		for k := range perKind {
			perKind[k] += h.perKind[k]
		}
	}
	for k := 0; k < events.NumKinds; k++ {
		set("pisa.handler_calls."+events.Kind(k).String(), float64(perKind[k]), "count")
	}
	set("pisa.handler_s", secs(hWall), "s")
	set("pisa.handler_ns", ratio(float64(hWall.Nanoseconds()), float64(hCalls)), "ns")
	set("p4.compile_s", secs(in.phases.P4Compile), "s")

	// tm: traffic-manager totals over every switch.
	set("tm.enqueued", float64(tmEnq), "count")
	set("tm.drops", float64(tmDrops), "count")
	set("tm.peak_kb", float64(tmPeak)/1024, "KiB")

	// netsim: generator sends, link delivery and cross-domain mail.
	var delivered, lost uint64
	for _, l := range in.net.Links() {
		delivered += l.Delivered()
		lost += l.Lost()
	}
	set("netsim.host_send_s", secs(sWall), "s")
	set("netsim.host_sends", float64(sCalls), "count")
	set("netsim.delivered", float64(delivered), "count")
	set("netsim.lost", float64(lost), "count")
	set("netsim.mail_frames", float64(self.MailFrames.Value()), "count")

	// part: barriers, windows and stalls (zero on serial workloads).
	var barriers, windows float64
	if in.part != nil {
		barriers, windows = float64(in.part.Barriers()), float64(in.part.Windows())
	}
	set("part.barriers", barriers, "count")
	set("part.windows", windows, "count")
	set("part.batched_windows", float64(self.PartBatchedWindows.Value()), "count")
	set("part.stall_s", secs(stall), "s")
	set("part.stall_frac", ratio(secs(stall), float64(domains)*secs(runWall)), "ratio")
	p50, _, _ := tailPercentile(tr.windowsUS, 50)
	p90, _, _ := tailPercentile(tr.windowsUS, 90)
	set("part.window_us_p50", p50, "us")
	set("part.window_us_p90", p90, "us")
	set("part.cycles_per_window", ratio(float64(cycles), windows), "count")
	set("part.window_s", secs(tr.windowWall), "s")
	var windowSelf time.Duration
	if in.part != nil {
		windowSelf = inner.self()
	}
	set("part.window_self_s", secs(windowSelf), "s")

	// packet pool and Go runtime over the run.
	set("packet.pool_high_water", float64(self.PoolInUse.High()), "count")
	set("run.mallocs", float64(m1.Mallocs-m0.Mallocs), "count")
	set("run.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), "MiB")
	set("gc.count", float64(m1.NumGC-m0.NumGC), "count")
	set("gc.pause_s", secs(time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)), "s")

	// set-up phases and span self times.
	set("setup.build_s", secs(in.phases.Build), "s")
	set("setup.compile_s", secs(in.phases.Compile), "s")
	set("setup.calibrate_s", secs(in.phases.Calibrate), "s")
	set("setup.arm_s", secs(in.phases.Arm), "s")
	set("setup.self_s", secs(setup.self()), "s")
	set("verify.self_s", secs(root.find("verify").self()), "s")

	tracedCPS := float64(cycles) / runWall.Seconds()
	set("trace.overhead", ratio(tracedCPS, t.Untraced.cyclesPerSec()), "ratio")

	counts := map[string]string{
		"run": fmt.Sprintf("cycles=%d dispatches=%.0f lane_arms=%d aux_arms=%d burst_occ_mean=%.2f",
			cycles, dispatches, self.SchedLaneArms.Value(), self.SchedAuxArms.Value(), occMean),
		"part.window": fmt.Sprintf("windows=%.0f barriers=%.0f batched=%d p50=%.1fus p90=%.1fus mail=%d",
			windows, barriers, self.PartBatchedWindows.Value(), p50, p90, self.MailFrames.Value()),
		"part.stall": fmt.Sprintf("stall_frac=%.3f", L["part.stall_frac"].Value),
	}
	fmt.Fprintf(log, "traced: run %.4fs cycles/s %.0f (overhead x%.3f) digest %016x\n",
		runWall.Seconds(), tracedCPS, L["trace.overhead"].Value, t.Digest)
	fmt.Fprintf(log, "slots: packet %d empty %d drain %d; tm enq %d drops %d peak %.1f KiB; links delivered %d lost %d\n",
		pktSlots, emptySlots, drainSlots, tmEnq, tmDrops, float64(tmPeak)/1024, delivered, lost)
	writeTable(log, run, counts)
	if err := run.reconcileError(time.Millisecond); err != nil {
		fmt.Fprintf(log, "warning: %v\n", err)
	}
	return nil
}

func (t *tracedRun) result() result {
	failed := 0
	if len(t.Failures) > 0 {
		failed = 1
	}
	return result{Correct: failed == 0, Attempted: 1, Failed: failed, Metrics: t.Layers}
}

// histStats returns the mean of a self-plane log2 histogram and the upper
// bound of the bucket holding its 90th percentile.
func histStats(h *self.Hist) (mean, p90 float64) {
	n := h.Count()
	if n == 0 {
		return 0, 0
	}
	mean = float64(h.Sum()) / float64(n)
	target := (9*n + 9) / 10
	var seen uint64
	for i := 0; i < self.HistBuckets; i++ {
		seen += h.Bucket(i)
		if seen >= target {
			return mean, float64(self.BucketHigh(i))
		}
	}
	return mean, float64(h.Max())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
