package main

import (
	_ "embed"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildConfig is what one set-up of a workload receives: the input seed,
// an optional shorter horizon (tests), and the tracer that wraps the
// calls into each layer (nil for untraced runs).
type buildConfig struct {
	seed    uint64
	horizon sim.Time // 0 = the workload's own horizon
	tr      *tracer
}

// phases are the set-up's own timings. Calibrate is the serial
// calibration pass of a load-planned partition, Compile the µP4 front
// end, instantiation and table entries (P4Compile is p4.Compile alone).
type phases struct {
	Build, Compile, Calibrate, Arm, P4Compile time.Duration
}

// instance is one set-up workload, ready for its single Network.Run.
type instance struct {
	net     *netsim.Network
	part    *sim.Partition // nil for a serial run
	horizon sim.Time
	phases  phases
	// digest folds every simulated counter the workload's output is
	// judged by; identical inputs must give identical digests at any
	// domain count.
	digest func() uint64
}

// cycles sums the pipeline cycles of every switch.
func (in *instance) cycles() uint64 {
	var c uint64
	for _, sw := range in.net.Switches() {
		c += sw.Stats().Cycles
	}
	return c
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name string
	// slices is how many equal slices of simulated time the run is cut
	// into for slice_ms_p90.
	slices int
	setup  func(buildConfig) *instance
}

var workloads = []workloadDef{
	{name: "ft8", slices: 384, setup: setupFT8},
	{name: "ft8-auto2", slices: 384, setup: setupFT8Auto2},
	{name: "up4-chain", slices: 400, setup: setupChain},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// digester folds uint64s into an FNV-1a digest, little-endian.
type digester struct{ h hash.Hash64 }

func (d digester) put(vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		d.h.Write(buf[:])
	}
}

// jitter draws the seed's perturbations of a workload: phase offsets and
// port salts. Seed 0 draws nothing, so it reproduces the unperturbed
// fabric exactly.
type jitter struct{ rng *sim.RNG }

func newJitter(seed uint64) jitter {
	if seed == 0 {
		return jitter{}
	}
	return jitter{rng: sim.NewRNG(seed*0x9e3779b97f4a7c15 + 0x7f4a7c15)}
}

// phase returns an offset in [0, max).
func (j jitter) phase(max sim.Time) sim.Time {
	if j.rng == nil {
		return 0
	}
	return sim.Time(j.rng.Int63n(int64(max)))
}

// salt returns a port offset in [0, n).
func (j jitter) salt(n int) uint16 {
	if j.rng == nil {
		return 0
	}
	return uint16(j.rng.Intn(n))
}

// sink returns the generator sink for host h: a plain Host.Send, or the
// tracer's sampled wrapper around it.
func sink(tr *tracer, h *netsim.Host) workload.Sink {
	if tr != nil {
		return tr.sendSink(h)
	}
	return func(d []byte) { h.Send(d) }
}

// ---------------------------------------------------------------------
// ft8: the k=8 fat tree.

// ftSpec sizes a k-ary fat-tree run: pods take turns running a dense
// intra-pod shuffle epoch (slot long) while one thin inter-pod flow per
// pod crosses the core plane for the whole run.
type ftSpec struct {
	k        int
	horizon  sim.Time
	slot     sim.Time
	hostRate sim.Rate
	interGap sim.Time
}

var ft8 = ftSpec{k: 8, horizon: 96 * sim.Millisecond, slot: 250 * sim.Microsecond,
	hostRate: 1120 * sim.Mbps, interGap: 150 * sim.Microsecond}

func (s ftSpec) switches() int { return s.k*s.k + (s.k/2)*(s.k/2) }

func setupFT8(cfg buildConfig) *instance {
	spec := ft8
	if cfg.horizon > 0 {
		spec.horizon = cfg.horizon
	}
	return buildFatTree(spec, cfg.seed, nil, cfg.tr)
}

// setupFT8Auto2 runs the same fabric on two domains, planned the way
// -domains auto plans them: a serial calibration pass over an eighth of
// the horizon (at least one full epoch rotation) measures per-switch
// cycles, and sim.PlanDomains turns them into the assignment.
func setupFT8Auto2(cfg buildConfig) *instance {
	spec := ft8
	if cfg.horizon > 0 {
		spec.horizon = cfg.horizon
	}
	start := time.Now()
	cal := spec
	cal.horizon = spec.horizon / 8
	if min := sim.Time(spec.k) * spec.slot; cal.horizon < min {
		cal.horizon = min
	}
	if cal.horizon > spec.horizon {
		cal.horizon = spec.horizon
	}
	ci := buildFatTree(cal, cfg.seed, nil, nil)
	ci.net.Run(cal.horizon)
	weights := make([]uint64, 0, spec.switches())
	for _, sw := range ci.net.Switches() {
		weights = append(weights, sw.Stats().Cycles)
	}
	assign := sim.PlanDomains(weights, 2)
	// Collect the calibration network before building the measured one,
	// so whether its garbage is still around does not decide the run's
	// peak memory.
	runtime.GC()
	calibrate := time.Since(start)
	in := buildFatTree(spec, cfg.seed, assign, cfg.tr)
	in.phases.Calibrate = calibrate
	return in
}

// buildFatTree wires the fat tree of internal/bench/fattree.go through
// the public APIs. assign maps switch index to domain; nil builds a
// serial network. Switch order is pod-major (pod p's edges at p*k+e,
// aggs at p*k+k/2+a), cores last.
func buildFatTree(spec ftSpec, seed uint64, assign []int, tr *tracer) *instance {
	start := time.Now()
	k, half := spec.k, spec.k/2
	nsw := spec.switches()
	in := &instance{horizon: spec.horizon}
	var net *netsim.Network
	schedFor := func(int) *sim.Scheduler { return net.Scheduler() }
	if assign != nil {
		domains := 0
		for _, d := range assign {
			if d+1 > domains {
				domains = d + 1
			}
		}
		in.part = sim.NewPartition(domains)
		net = netsim.NewPartitioned(in.part)
		schedFor = func(i int) *sim.Scheduler { return in.part.Sched(assign[i]) }
	} else {
		net = netsim.New(sim.NewScheduler())
	}
	in.net = net

	sws := make([]*core.Switch, 0, nsw)
	add := func(name string, idx int, fc apps.FatTreeConfig) {
		sw := core.New(core.Config{Name: name, Ports: k}, core.EventDriven(), schedFor(idx))
		prog := apps.FatTreeRouter(fc)
		if tr != nil {
			tr.wrapProgram(prog)
		}
		sw.MustLoad(prog)
		sws = append(sws, sw)
	}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			add(fmt.Sprintf("p%de%d", p, e), p*k+e,
				apps.FatTreeConfig{K: k, Role: apps.FatTreeEdge, Pod: p, Idx: e})
		}
		for a := 0; a < half; a++ {
			add(fmt.Sprintf("p%da%d", p, a), p*k+half+a,
				apps.FatTreeConfig{K: k, Role: apps.FatTreeAgg, Pod: p, Idx: a})
		}
	}
	for c := 0; c < half*half; c++ {
		add(fmt.Sprintf("core%d", c), k*k+c,
			apps.FatTreeConfig{K: k, Role: apps.FatTreeCore, Idx: c})
	}
	edgeSW := func(p, e int) *core.Switch { return sws[p*k+e] }
	aggSW := func(p, a int) *core.Switch { return sws[p*k+half+a] }
	coreSW := func(c int) *core.Switch { return sws[k*k+c] }
	for _, sw := range sws {
		net.AddSwitch(sw)
	}
	coreLat := func(p int) sim.Time { return 5*sim.Microsecond + sim.Time(p)*2500*sim.Nanosecond }
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				net.Connect(edgeSW(p, e), half+a, aggSW(p, a), e, sim.Microsecond)
			}
		}
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				net.Connect(aggSW(p, a), half+j, coreSW(a*half+j), p, coreLat(p))
			}
		}
	}
	hosts := make([]*netsim.Host, 0, k*half*half)
	hostAt := func(p, e, h int) *netsim.Host { return hosts[(p*half+e)*half+h] }
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				host := net.NewHost(fmt.Sprintf("h%d.%d.%d", p, e, h), apps.FatTreeHostIP(p, e, h))
				net.Attach(host, edgeSW(p, e), h, 500*sim.Nanosecond)
				hosts = append(hosts, host)
			}
		}
	}
	in.phases.Build = time.Since(start)

	start = time.Now()
	j := newJitter(seed)
	rng := sim.NewRNG(11)
	// Rolling shuffle epochs: during pod p's slots every host in the pod
	// streams CBR to the same-numbered host one edge over.
	cycle := sim.Time(k) * spec.slot
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				src := hostAt(p, e, h)
				fl := packet.Flow{
					Src: src.IP, Dst: apps.FatTreeHostIP(p, (e+1)%half, h),
					SrcPort: uint16(1000+p*half*half+e*half+h) + 1000*j.salt(8), DstPort: 80,
					Proto: packet.ProtoUDP,
				}
				g := workload.NewGen(src.Scheduler(), rng.Split(), sink(tr, src))
				off := j.phase(sim.Microsecond)
				for at := sim.Time(p)*spec.slot + off; at < spec.horizon; at += cycle {
					end := at + spec.slot
					if end > spec.horizon {
						end = spec.horizon
					}
					src.Scheduler().At(at, func() {
						g.StartCBR(workload.CBRConfig{
							Flow: fl, Size: workload.FixedSize(256),
							Rate: spec.hostRate, Until: end,
						})
					})
				}
			}
		}
	}
	// Background inter-pod flows, one per pod, for the whole run.
	for p := 0; p < k; p++ {
		src := hostAt(p, 0, 0)
		fl := packet.Flow{
			Src: src.IP, Dst: apps.FatTreeHostIP((p+1)%k, 0, 1),
			SrcPort: uint16(4000+p) + 100*j.salt(8), DstPort: 443, Proto: packet.ProtoUDP,
		}
		g := workload.NewGen(src.Scheduler(), rng.Split(), sink(tr, src))
		cbr := workload.CBRConfig{
			Flow: fl, Size: workload.FixedSize(256),
			Rate:  sim.Rate((256 + 24) * 8 * int64(sim.Second) / int64(spec.interGap)),
			Until: spec.horizon,
		}
		if off := j.phase(spec.interGap); off > 0 {
			src.Scheduler().At(off, func() { g.StartCBR(cbr) })
		} else {
			g.StartCBR(cbr)
		}
	}
	in.phases.Arm = time.Since(start)

	in.digest = func() uint64 {
		d := digester{fnv.New64a()}
		for _, sw := range net.Switches() {
			st := sw.Stats()
			d.put(st.RxPackets, st.TxPackets, st.Cycles, st.Generated, st.PipelineDrops)
		}
		putLinks(d, net)
		for _, h := range hosts {
			d.put(h.RxPackets, h.RxBytes)
		}
		return d.h.Sum64()
	}
	return in
}

func putLinks(d digester, net *netsim.Network) {
	for _, l := range net.Links() {
		for dir := 0; dir < 2; dir++ {
			c := l.Counters(dir)
			d.put(c.Sent, c.Delivered, c.LostAtSend, c.LostInFlight, c.InFlight())
		}
	}
}

// ---------------------------------------------------------------------
// up4-chain: three switches running a stateful µP4 program.

//go:embed chain.up4
var chainSrc string

// chainHorizon is the up4-chain simulated run length; traffic stops
// chainDrain before it so queues empty before the digest is taken.
const (
	chainHorizon = 6 * sim.Millisecond
	chainDrain   = 200 * sim.Microsecond
)

// setupChain wires h0 - sw0 - sw1 - sw2 - h1 (port 0 upstream, port 1
// downstream on every switch), loads chain.up4 compiled onto each switch,
// offers 64 B forward and 1500 B reverse CBR flows, arms a periodic
// data-plane timer per switch, and flaps the sw0-sw1 link once.
func setupChain(cfg buildConfig) *instance {
	horizon := chainHorizon
	if cfg.horizon > 0 {
		horizon = cfg.horizon
	}
	in := &instance{horizon: horizon}
	const nsw, fwdFlows, revFlows = 3, 6, 2

	start := time.Now()
	compiled, err := p4.Compile(chainSrc)
	if err != nil {
		panic(fmt.Sprintf("perfbench: chain.up4: %v", err))
	}
	in.phases.P4Compile = time.Since(start)
	insts := make([]*p4.Instance, nsw)
	for i := range insts {
		inst := compiled.Instantiate(fmt.Sprintf("chain%d", i), p4.Options{})
		inst.SetSwitchID(uint32(i + 1))
		for f := 0; f < fwdFlows; f++ {
			mustOK(inst.InstallEntry("fwd", []uint64{uint64(packet.IP4(10, 9, byte(f), 7))}, nil, 0, "set_port", 1))
		}
		for f := 0; f < revFlows; f++ {
			mustOK(inst.InstallEntry("fwd", []uint64{uint64(packet.IP4(10, 0, byte(f), 9))}, nil, 0, "set_port", 0))
		}
		if cfg.tr != nil {
			cfg.tr.wrapProgram(inst.Program())
		}
		insts[i] = inst
	}
	in.phases.Compile = time.Since(start)

	start = time.Now()
	net := netsim.New(sim.NewScheduler())
	in.net = net
	sws := make([]*core.Switch, nsw)
	for i := range sws {
		sws[i] = core.New(core.Config{Name: fmt.Sprintf("sw%d", i), Ports: 2, QueueCapBytes: 1 << 20},
			core.EventDriven(), net.Scheduler())
		sws[i].MustLoad(insts[i].Program())
		net.AddSwitch(sws[i])
	}
	net.Connect(sws[0], 1, sws[1], 0, sim.Microsecond)
	net.Connect(sws[1], 1, sws[2], 0, sim.Microsecond)
	h0 := net.NewHost("h0", packet.IP4(10, 0, 0, 5))
	net.Attach(h0, sws[0], 0, 0)
	h1 := net.NewHost("h1", packet.IP4(10, 9, 0, 5))
	net.Attach(h1, sws[2], 1, 0)
	in.phases.Build = time.Since(start)

	start = time.Now()
	j := newJitter(cfg.seed)
	rng := sim.NewRNG(11)
	until := horizon - chainDrain
	startFlow := func(h *netsim.Host, fl packet.Flow, size int, rate sim.Rate) {
		g := workload.NewGen(h.Scheduler(), rng.Split(), sink(cfg.tr, h))
		cbr := workload.CBRConfig{Flow: fl, Size: workload.FixedSize(size), Rate: rate, Until: until}
		if off := j.phase(rate.ByteTime(size + 24)); off > 0 {
			h.Scheduler().At(off, func() { g.StartCBR(cbr) })
		} else {
			g.StartCBR(cbr)
		}
	}
	for f := 0; f < fwdFlows; f++ {
		startFlow(h0, packet.Flow{
			Src: h0.IP, Dst: packet.IP4(10, 9, byte(f), 7),
			SrcPort: uint16(4000+f) + 16*j.salt(64), DstPort: uint16(80 + f%3), Proto: packet.ProtoUDP,
		}, 64, 800*sim.Mbps)
	}
	for f := 0; f < revFlows; f++ {
		startFlow(h1, packet.Flow{
			Src: h1.IP, Dst: packet.IP4(10, 0, byte(f), 9),
			SrcPort: uint16(5000+f) + 16*j.salt(64), DstPort: 443, Proto: packet.ProtoUDP,
		}, 1500, 1000*sim.Mbps)
	}
	for _, sw := range sws {
		mustOK(sw.ConfigureTimer(0, 5*sim.Microsecond))
	}
	mid := net.LinkAt(sws[0], 1)
	flap := horizon*2/5 + j.phase(sim.Microsecond)
	net.ScheduleLinkChange(mid, flap, false)
	net.ScheduleLinkChange(mid, flap+horizon/10, true)
	in.phases.Arm = time.Since(start)

	in.digest = func() uint64 {
		d := digester{fnv.New64a()}
		for i, sw := range sws {
			st := sw.Stats()
			d.put(st.RxPackets, st.RxBytes, st.TxPackets, st.TxBytes, st.Cycles,
				st.PipelineDrops, st.Recirculated, st.Generated, st.TxDroppedLinkDown)
			d.put(st.EventsMerged[:]...)
			prog := insts[i].Program()
			for _, r := range prog.Registers() {
				for c := 0; c < r.Size(); c++ {
					if v := r.True(uint32(c)); v != 0 {
						d.put(uint64(c), uint64(v))
					}
				}
			}
			for _, tn := range prog.TableNames() {
				lookups, misses := prog.Table(tn).Stats()
				d.put(lookups, misses)
			}
			enq, deq, drops, peak := sw.TM().Stats()
			d.put(enq, deq, drops, uint64(peak))
		}
		putLinks(d, net)
		for _, h := range net.Hosts() {
			d.put(h.RxPackets, h.RxBytes)
		}
		return d.h.Sum64()
	}
	return in
}

func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}
