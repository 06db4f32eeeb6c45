package bench

import (
	"fmt"
	"hash/fnv"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "hula", Paper: "§3 Congestion Aware Forwarding: HULA probes from the data plane", Run: HULABench})
}

// HULABench builds a 2-ToR / 2-spine leaf-spine fabric running HULA and
// sweeps the probe period. Data-plane generators can probe at tens of
// microseconds; a control-plane implementation is limited to
// millisecond-scale periods (its channel latency and software jitter).
// The measurement is uplink load balance at tor0 under skewed flows: how
// evenly the two spine paths carry the offered load (Jain fairness of the
// two uplink byte counts) and how quickly the best hop reflects
// congestion.
func HULABench() *Result {
	res := &Result{
		ID:    "hula",
		Title: "HULA path balancing vs probe period (paper §3)",
		Cols:  []string{"probe source", "probe period", "uplink balance (Jain)", "probes/s/switch", "flows moved"},
	}
	configs := []struct {
		name   string
		period sim.Time
	}{
		{"data plane", 50 * sim.Microsecond},
		{"data plane", 200 * sim.Microsecond},
		{"data plane", 1 * sim.Millisecond},
		{"control plane", 10 * sim.Millisecond}, // feasible CP period
		{"control plane", 50 * sim.Millisecond},
	}
	rows := RunParallel(len(configs), func(trial int) []string {
		cfg := configs[trial]
		m := runHULAFabric(fabricSpec{
			tors: 2, spines: 2,
			probePeriod: cfg.period,
			horizon:     50 * sim.Millisecond,
			flows:       12,
			flowRate:    660 * sim.Mbps,
			domains:     Domains(),
			loadAware:   DomainsAuto(),
			tel:         trialCollector(fmt.Sprintf("hula/t%02d", trial)),
		})
		return []string{cfg.name, cfg.period.String(),
			fmt.Sprintf("%.3f", m.jain), fmt.Sprintf("%.0f", m.probesPerSec), d(m.moved)}
	})
	for _, row := range rows {
		res.AddRow(row...)
	}
	res.Notef("Jain fairness of tor0's two uplink byte counts over the run; 1.0 = perfectly balanced")
	res.Notef("control-plane rows model the same probes generated at the slowest period a software agent sustains")
	res.Notef("'flows moved' counts best-hop changes at tor0 — congestion response happening at all")
	return res
}

// fabricSpec sizes one HULA leaf-spine run. tors and spines should be
// powers of two (the HULA dest-ToR mapping folds the IP's second octet
// modulo the ToR count).
type fabricSpec struct {
	tors, spines int
	probePeriod  sim.Time
	horizon      sim.Time
	// flows is the number of CBR flows offered at tor0's host, spread
	// round-robin over the other ToRs; flowRate is each flow's rate.
	flows    int
	flowRate sim.Rate
	// domains splits the fabric's switches across that many partition
	// domains (switch index modulo domains); 1 runs single-scheduler.
	domains int
	// classic forces fixed-width conservative windows — the baseline the
	// adaptive batching protocol is measured against. Output must be
	// byte-identical either way.
	classic bool
	// loadAware assigns switches to domains by measured per-switch cycle
	// load (a short calibration run + sim.PlanDomains) instead of index
	// round-robin. Assignment never changes simulation output.
	loadAware bool
	// tel, when non-nil, instruments every switch and snapshots link
	// counters after the run. Byte-identical at every domains value.
	tel *telemetry.Collector
	// perSwitch, when non-nil, receives each switch's cycle count after
	// the run (calibration passes use this as the load signal).
	perSwitch *[]uint64
}

// fabricMetrics is what one fabric run measures. digest folds every
// deterministic observable (per-switch and per-link counters, uplink
// bytes, hop moves) into one value, so a scale sweep can assert that
// different domain counts executed the identical simulation.
type fabricMetrics struct {
	jain         float64
	probesPerSec float64
	moved        int
	cycles       uint64
	txPackets    uint64
	digest       uint64
	// windows and barriers describe the parallel run's coordination shape
	// (0 when single-scheduler). They are run metadata — they legitimately
	// vary with domain count and batching mode — so identity checks strip
	// them (ident).
	windows  uint64
	barriers uint64
}

// ident returns the simulation-identity view of the metrics: everything
// that must be byte-identical across domain counts and batching modes,
// with the coordination-shape metadata zeroed.
func (m fabricMetrics) ident() fabricMetrics {
	m.windows, m.barriers = 0, 0
	return m
}

// runHULAFabric runs a leaf-spine fabric for the spec'd horizon and
// returns its metrics. The simulation is byte-identical for every
// domains value: switches interact only through links, cross-domain
// delivery is ordered by the scheduler wire band, and all RNG streams
// are split deterministically at setup.
func runHULAFabric(spec fabricSpec) fabricMetrics {
	if spec.domains < 1 {
		spec.domains = 1
	}
	nsw := spec.tors + spec.spines
	if spec.domains > nsw {
		spec.domains = nsw
	}

	// Domain d drives switch indices i with i % domains == d (or the
	// load-aware plan's assignment); with domains 1 everything lands on
	// one scheduler and netsim runs the classic single-threaded engine.
	var net *netsim.Network
	var part *sim.Partition
	schedFor := func(i int) *sim.Scheduler { return net.Scheduler() }
	if spec.domains > 1 {
		part = sim.NewPartition(spec.domains)
		net = netsim.NewPartitioned(part)
		part.SetClassicWindows(spec.classic)
		if spec.loadAware {
			assign := planFabricDomains(spec)
			schedFor = func(i int) *sim.Scheduler { return part.Sched(assign[i]) }
		} else {
			schedFor = func(i int) *sim.Scheduler { return part.Sched(i % spec.domains) }
		}
	} else {
		net = netsim.New(sim.NewScheduler())
	}

	refresh := spec.probePeriod
	if refresh < 100*sim.Microsecond {
		refresh = 100 * sim.Microsecond
	}

	uplinks := make([]int, spec.spines)
	for j := range uplinks {
		uplinks[j] = 1 + j
	}
	tors := make([]*core.Switch, spec.tors)
	hulas := make([]*apps.HULA, spec.tors)
	for i := range tors {
		sw := core.New(core.Config{
			Name: fmt.Sprintf("tor%d", i), Ports: 1 + spec.spines,
		}, core.EventDriven(), schedFor(i))
		h, prog := apps.NewHULA(apps.HULAConfig{
			TorID: uint16(i), ProbePeriod: spec.probePeriod,
			UplinkPorts: uplinks, HostPort: 0, Tors: spec.tors,
		})
		sw.MustLoad(prog)
		tors[i], hulas[i] = sw, h
	}
	spines := make([]*core.Switch, spec.spines)
	spineHulas := make([]*apps.HULA, spec.spines)
	for j := range spines {
		sw := core.New(core.Config{
			Name: fmt.Sprintf("spine%d", j), Ports: spec.tors,
		}, core.EventDriven(), schedFor(spec.tors+j))
		h, prog := apps.SpineProbeRelay(spec.tors, spec.tors, func(tor int) int { return tor })
		sw.MustLoad(prog)
		spines[j], spineHulas[j] = sw, h
	}
	for _, sw := range tors {
		net.AddSwitch(sw)
	}
	for _, sw := range spines {
		net.AddSwitch(sw)
	}
	net.ConnectLeafSpine(tors, spines, sim.Microsecond)
	if spec.tel != nil {
		// After every AddSwitch (stream creation order = switch order) and
		// before the run; all instruments exist before domains go parallel.
		net.EnableTelemetry(spec.tel)
	}

	// One host per ToR (attach order matches the seed's 2x2 wiring:
	// highest-numbered ToR hosts first, tor0's sender last).
	hosts := make([]*netsim.Host, spec.tors)
	for i := spec.tors - 1; i >= 1; i-- {
		hosts[i] = net.NewHost(fmt.Sprintf("h%d", i), packet.IP4(10, byte(i), 0, 2))
		net.Attach(hosts[i], tors[i], 0, 0)
	}
	hosts[0] = net.NewHost("h0", packet.IP4(10, 0, 0, 2))
	net.Attach(hosts[0], tors[0], 0, 0)

	for i, h := range hulas {
		mustOK(h.Attach(tors[i], refresh))
	}
	for j, h := range spineHulas {
		mustOK(h.AttachSpine(spines[j], refresh))
	}

	// Offered load: spec.flows CBR flows from h0, destinations spread
	// over the other ToRs (with 2 ToRs: all toward tor1, together hot
	// enough that one uplink would saturate while balanced uplinks stay
	// comfortable).
	rng := sim.NewRNG(7)
	h0host := hosts[0]
	for i := 0; i < spec.flows; i++ {
		dstTor := 1 + i%(spec.tors-1)
		fl := packet.Flow{
			Src: packet.IP4(10, 0, 0, 2), Dst: packet.IP4(10, byte(dstTor), byte(i), 5),
			SrcPort: uint16(3000 + i), DstPort: 80, Proto: packet.ProtoUDP,
		}
		g := workload.NewGen(h0host.Scheduler(), rng.Split(), func(d []byte) { h0host.Send(d) })
		g.StartCBR(workload.CBRConfig{
			Flow: fl, Size: workload.FixedSize(1500),
			Rate: spec.flowRate, Until: spec.horizon,
		})
	}

	// Track tor0 uplink bytes and best-hop changes (both live in tor0's
	// domain: the tap runs on tor0's scheduler, as does the observer).
	uplinkBytes := make([]uint64, spec.spines)
	net.TapTransmit(tors[0], func(port int, data []byte) {
		// Count only data traffic, not probes.
		if packet.EtherTypeOf(data) != packet.EtherTypeIPv4 {
			return
		}
		if port >= 1 && port <= spec.spines {
			uplinkBytes[port-1] += uint64(len(data))
		}
	})

	var m fabricMetrics
	h0 := hulas[0]
	lastHop := -1
	tors[0].Scheduler().Every(100*sim.Microsecond, func() {
		hop, _ := h0.BestHop(1)
		if hop != lastHop && hop >= 0 {
			if lastHop >= 0 {
				m.moved++
			}
			lastHop = hop
		}
	})

	net.Run(spec.horizon)
	faults.MustAudit(net)
	if spec.tel != nil {
		net.RecordLinkTelemetry(spec.tel)
	}

	var sum, sumsq float64
	for _, b := range uplinkBytes {
		sum += float64(b)
		sumsq += float64(b) * float64(b)
	}
	if sum > 0 {
		m.jain = sum * sum / (float64(spec.spines) * sumsq)
	}
	m.probesPerSec = float64(h0.ProbesSent) / spec.horizon.Seconds()

	dig := fnv.New64a()
	put := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			for k := 0; k < 8; k++ {
				buf[k] = byte(v >> (8 * k))
			}
			dig.Write(buf[:])
		}
	}
	for _, sw := range net.Switches() {
		st := sw.Stats()
		m.cycles += st.Cycles
		m.txPackets += st.TxPackets
		put(st.RxPackets, st.TxPackets, st.Cycles, st.Generated, st.PipelineDrops)
		if spec.perSwitch != nil {
			*spec.perSwitch = append(*spec.perSwitch, st.Cycles)
		}
	}
	if part != nil {
		m.windows, m.barriers = part.Windows(), part.Barriers()
	}
	for _, l := range net.Links() {
		for dir := 0; dir < 2; dir++ {
			c := l.Counters(dir)
			put(c.Sent, c.Delivered, c.LostAtSend, c.LostInFlight, c.InFlight())
		}
	}
	put(uint64(m.moved))
	put(uplinkBytes...)
	for _, h := range hosts {
		put(h.RxPackets, h.RxBytes)
	}
	m.digest = dig.Sum64()
	return m
}

// planFabricDomains runs a short single-scheduler calibration pass of
// the spec'd fabric, collects each switch's cycle count as its load
// weight, and plans the domain assignment with sim.PlanDomains (the
// ndn-dpdk idiom: allocate cores by measured load, not index
// arithmetic). The plan is deterministic — same spec, same assignment —
// and the assignment never changes simulation output, only wall-clock
// balance.
func planFabricDomains(spec fabricSpec) []int {
	cal := spec
	cal.domains = 1
	cal.classic, cal.loadAware = false, false
	cal.tel = nil
	cal.horizon = spec.horizon / 8
	if min := 2 * sim.Millisecond; cal.horizon < min {
		cal.horizon = min
	}
	if cal.horizon > spec.horizon {
		cal.horizon = spec.horizon
	}
	var weights []uint64
	cal.perSwitch = &weights
	runHULAFabric(cal)
	return sim.PlanDomains(weights, spec.domains)
}
