package core

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tm"
)

// WireOverhead is the per-frame wire overhead in bytes beyond the frame
// data the simulator carries: 4 (FCS) + 8 (preamble) + 12 (inter-frame
// gap). It determines both serialization times and the pipeline's
// minimum-packet cycle budget.
const WireOverhead = 24

// minWireBytes is the wire footprint of a minimum-size frame.
const minWireBytes = packet.MinFrameLen + WireOverhead // 84 bytes = 64B frame + 20B overhead

// Config sizes a Switch.
type Config struct {
	// Name identifies the switch in traces and stats.
	Name string
	// Ports is the number of full-duplex ports (default 4, as on the
	// NetFPGA SUME).
	Ports int
	// LineRate is the per-port rate (default 10 Gb/s).
	LineRate sim.Rate
	// Overspeed is the pipeline clock multiplier relative to the exact
	// aggregate minimum-packet rate. 1.0 means one slot per possible
	// minimum packet; modern switch chips run slightly faster than line
	// rate (paper §4), so the default is 1.1.
	Overspeed float64
	// QueueCapBytes bounds each output queue (default 256 KiB).
	QueueCapBytes int
	// QueuesPerPort is output queues per port (default 1).
	QueuesPerPort int
	// Discipline is the TM scheduling discipline.
	Discipline tm.Discipline
	// EventQueueDepth bounds each event FIFO between a source and the
	// Event Merger (default 512).
	EventQueueDepth int
	// PipelineLatency is the ingress-pipeline depth in cycles: the delay
	// between a slot entering the pipeline and its packet reaching the
	// traffic manager (default 16 stages).
	PipelineLatency int
	// MaxEventsPerSlot bounds how many events the merger can attach to
	// one pipeline slot — the metadata bus width of paper §4 ("the
	// pipeline is wide enough to carry all the events"). 0 means one
	// event of every kind fits (a full-width bus).
	MaxEventsPerSlot int
	// NoPiggyback disables the Event Merger's defining trick: events no
	// longer ride packet slots, so every event consumes a dedicated
	// (empty-packet) slot that competes with packets for the pipeline.
	// Only for the ablation; the paper's design always piggybacks.
	NoPiggyback bool
	// MergerPriority overrides the order in which the Event Merger
	// drains event FIFOs into a slot (default: the package-level
	// MergerPriority). Setting it per switch keeps concurrent
	// simulations independent.
	MergerPriority []events.Kind
	// EventOverflow overrides the overflow policy of individual event
	// FIFOs. Kinds not present get the defaults: LinkStatusChange
	// coalesces per port (a flap burst collapses to each port's final
	// state), every other kind drops the newest event when full.
	EventOverflow map[events.Kind]events.OverflowPolicy
	// NoDrainFastForward disables the idle-cycle drain fast-forward for
	// this switch: drain-only stretches then run cycle-by-cycle on the
	// scheduler lane. Differential tests use it to pin the fast path
	// against the slow one; results are identical either way.
	NoDrainFastForward bool
}

// ForceSlowDrain globally disables the drain fast-forward (as if every
// switch were built with NoDrainFastForward). Differential and
// determinism tests flip it to prove the batched drain replays the
// cycle-by-cycle path exactly. Not for concurrent mutation: set it before
// building switches.
var ForceSlowDrain bool

func (c Config) withDefaults() Config {
	if c.Ports <= 0 {
		c.Ports = 4
	}
	if c.LineRate <= 0 {
		c.LineRate = 10 * sim.Gbps
	}
	if c.Overspeed <= 0 {
		c.Overspeed = 1.1
	}
	if c.QueueCapBytes <= 0 {
		c.QueueCapBytes = 256 << 10
	}
	if c.QueuesPerPort <= 0 {
		c.QueuesPerPort = 1
	}
	if c.EventQueueDepth <= 0 {
		c.EventQueueDepth = 512
	}
	if c.PipelineLatency <= 0 {
		c.PipelineLatency = 16
	}
	if c.MergerPriority == nil {
		c.MergerPriority = MergerPriority
	}
	return c
}

// MergerPriority is the order in which the Event Merger drains event
// FIFOs into a slot: most urgent first (paper §4 raises exactly this
// scheduling question; this is the default the prototype uses).
var MergerPriority = []events.Kind{
	events.BufferDequeue,
	events.BufferEnqueue,
	events.BufferOverflow,
	events.BufferUnderflow,
	events.PacketTransmitted,
	events.LinkStatusChange,
	events.TimerExpiration,
	events.ControlPlaneTriggered,
	events.UserEvent,
}

// Stats counts a switch's lifetime activity.
type Stats struct {
	RxPackets, RxBytes uint64
	TxPackets, TxBytes uint64
	RxDropped          uint64 // arrived on a downed link
	TxDroppedLinkDown  uint64
	PipelineDrops      uint64 // dropped by the program's decision
	Cycles             uint64
	PacketSlots        uint64 // slots carrying a real packet
	EmptySlots         uint64 // injected empty packets (metadata carriers)
	DrainSlots         uint64 // cycles run purely to drain aggregation
	EventsMerged       [events.NumKinds]uint64
	EventsDropped      [events.NumKinds]uint64 // FIFO-full losses
	EventsCoalesced    [events.NumKinds]uint64 // merged into a pending same-port event
	EventsShed         [events.NumKinds]uint64 // evicted oldest under DropOldest pressure
	Recirculated       uint64
	Generated          uint64
}

// SlotInfo describes one executed pipeline slot for tracing.
type SlotInfo struct {
	Cycle   uint64
	At      sim.Time
	PktKind events.Kind // IngressPacket/RecirculatedPacket/GeneratedPacket
	PktLen  int         // 0 for empty metadata slots
	Empty   bool
	Events  []events.Kind // non-packet events merged into the slot
}

// genTemplate is a periodic packet-generator configuration.
type genTemplate struct {
	every  sim.Time
	make   func(seq uint64) ([]byte, int) // returns frame and suggested port (-1: route in pipeline)
	seq    uint64
	ticker *sim.Ticker
}

// Switch is one switch instance: the datapath of Figure 4 attached to a
// scheduler. Create with New, load a Program with Load, feed packets with
// Inject (or connect links in internal/netsim), then run the scheduler.
type Switch struct {
	cfg   Config
	arch  *Arch
	sched *sim.Scheduler
	prog  *pisa.Program

	cycleTime   sim.Time
	nextCycleAt sim.Time
	cycleIdx    uint64
	cycleLane   *sim.Lane
	noFF        bool

	// slotNow/slotCycle snapshot the (time, cycle) pair at the top of the
	// last runCycle. During a drain fast-forward the registers' cycles run
	// ahead of the scheduler clock; telemetry reconstructs each drained
	// delta's virtual timestamp as slotNow + (regCycle-slotCycle)*cycleTime.
	slotNow   sim.Time
	slotCycle uint64

	// pool recycles every packet the switch materializes (rx copies,
	// generated frames): the steady-state forward path allocates nothing.
	pool *packet.Pool

	rxq        [][]*packet.Packet
	rxHead     []int
	rxRR       int
	rxPending  int // packets queued across rxq (kept so work checks are O(1))
	recirc     []*packet.Packet
	lastRecirc bool
	genq       []*packet.Packet

	evq [events.NumKinds]*events.Queue
	// evMask has bit k set while evq[k] is non-empty; prioMask has bit k
	// set for kinds the merger actually drains (cfg.MergerPriority). The
	// pair makes the per-slot event scan and the wake predicate O(1) when
	// no events are pending — the common case under packet load.
	evMask   uint32
	prioMask uint32

	// slotEv/slotKinds hold the events the merger gathered for the slot
	// in flight. They live here rather than on runSlot's stack so a slot
	// does not zero a NumKinds-wide event array before it starts.
	slotEv    [events.NumKinds]events.Event
	slotKinds [events.NumKinds]events.Kind

	tmgr   *tm.TM
	linkUp []bool
	txBusy []bool
	txPkt  []*packet.Packet // packet on the wire per port
	evSeq  uint64

	// The conveyor: the switch's own future work — pipeline-latency
	// deliveries to the TM and per-port tx completions — kept out of the
	// scheduler's heap. Every entry is stamped with the exact (at, seq)
	// coordinates the equivalent scheduler event would have had (the seq
	// is drawn from the shared counter at schedule time), and the aux
	// lane is armed at the earliest entry's coordinates, so firing order
	// against heap events, wire arrivals, and other lanes is byte-
	// identical to per-event scheduling.
	pipeQ      []pipeEntry // FIFO in (at, seq): slot → TM deliveries
	pipeHead   int         // index of the conveyor's earliest entry
	txDoneAt   []sim.Time  // per-port tx-complete instant
	txDoneSeq  []uint64    // per-port tx-complete sequence number
	txDonePend []bool      // per-port tx-complete pending
	// txMin is the port of the earliest pending tx completion by (at, seq),
	// or -1 when none is pending. pump keeps it with one comparison; only
	// clearing the txMin port itself costs a rescan (txRescan).
	txMin   int
	auxLane *sim.Lane // fires the earliest conveyor entry

	emptyPkt packet.Packet   // reused metadata-carrier slot packet
	egrFree  []*pisa.Context // free list of egress contexts (pump re-enters)

	timers []*sim.Ticker
	gens   []*genTemplate

	ctx pisa.Context

	// OnTransmit, when set, receives each packet as its last byte
	// leaves the given port (netsim uses it to drive links).
	OnTransmit func(port int, pkt *packet.Packet)

	// OnDrop, when set, observes packets the switch discards with the
	// reason ("tm-overflow", "pipeline-drop", "link-down", ...).
	OnDrop func(pkt *packet.Packet, reason string)

	// OnSlot, when set, observes every executed pipeline slot (cycle
	// trace). It costs a call per cycle; leave nil in experiments.
	OnSlot func(info SlotInfo)

	stats Stats

	// tel is the switch's telemetry probe (nil until EnableTelemetry).
	// Every probe point below is a nil-guarded field access, so the
	// disabled path stays allocation- and branch-predictor-friendly.
	tel        *telemetry.SwitchProbe
	telCol     *telemetry.Collector
	telSampler *sim.Ticker
}

// New builds a switch on the given scheduler with the given architecture.
func New(cfg Config, arch *Arch, sched *sim.Scheduler) *Switch {
	cfg = cfg.withDefaults()
	s := &Switch{cfg: cfg, arch: arch, sched: sched, pool: packet.NewPool()}
	s.noFF = cfg.NoDrainFastForward || ForceSlowDrain
	for _, k := range cfg.MergerPriority {
		s.prioMask |= 1 << uint(k)
	}

	perPortMin := cfg.LineRate.ByteTime(minWireBytes)
	s.cycleTime = sim.Time(float64(perPortMin) / (float64(cfg.Ports) * cfg.Overspeed))
	if s.cycleTime < 1 {
		s.cycleTime = 1
	}

	s.cycleLane = sched.NewLane(s.runCycle)
	s.auxLane = sched.NewLane(s.auxRun)
	s.rxq = make([][]*packet.Packet, cfg.Ports)
	s.rxHead = make([]int, cfg.Ports)
	s.linkUp = make([]bool, cfg.Ports)
	s.txBusy = make([]bool, cfg.Ports)
	s.txPkt = make([]*packet.Packet, cfg.Ports)
	s.txDoneAt = make([]sim.Time, cfg.Ports)
	s.txDoneSeq = make([]uint64, cfg.Ports)
	s.txDonePend = make([]bool, cfg.Ports)
	s.txMin = -1
	for i := range s.linkUp {
		s.linkUp[i] = true
	}
	for k := 0; k < events.NumKinds; k++ {
		kind := events.Kind(k)
		s.evq[k] = events.NewQueue(kind, cfg.EventQueueDepth)
		pol, ok := cfg.EventOverflow[kind]
		if !ok && kind == events.LinkStatusChange {
			pol = events.CoalescePort
		}
		s.evq[k].SetPolicy(pol)
	}
	s.tmgr = tm.New(tm.Config{
		Ports:         cfg.Ports,
		QueuesPerPort: cfg.QueuesPerPort,
		QueueCapBytes: cfg.QueueCapBytes,
		Discipline:    cfg.Discipline,
	})
	s.tmgr.OnEvent = s.pushEvent
	s.tmgr.Wants = s.subscribed
	return s
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.cfg.Name }

// Config returns the effective configuration.
func (s *Switch) Config() Config { return s.cfg }

// Scheduler returns the scheduler driving this switch. In a partitioned
// simulation (sim.Partition) it identifies the switch's domain: every
// event the switch schedules — pipeline cycles, timers, generators,
// transmit completions — lands on this scheduler, so a switch built on a
// partition domain runs entirely within that domain. The switch keeps no
// cross-switch mutable state; all inter-switch interaction flows through
// netsim links, which is what makes domain-parallel execution safe.
func (s *Switch) Scheduler() *sim.Scheduler { return s.sched }

// Arch returns the switch's architecture description.
func (s *Switch) Arch() *Arch { return s.arch }

// CycleTime returns the pipeline clock period.
func (s *Switch) CycleTime() sim.Time { return s.cycleTime }

// TM exposes the traffic manager (monitors read occupancancies from it).
func (s *Switch) TM() *tm.TM { return s.tmgr }

// Program returns the loaded program (nil before Load).
func (s *Switch) Program() *pisa.Program { return s.prog }

// Stats returns a snapshot of the switch's counters.
func (s *Switch) Stats() Stats { return s.stats }

// Load installs a program after validating it against the architecture.
func (s *Switch) Load(p *pisa.Program) error {
	if err := s.arch.Validate(p); err != nil {
		return err
	}
	s.prog = p
	s.instrumentRegisters()
	return nil
}

// MustLoad is Load that panics on error, for experiment setup code.
func (s *Switch) MustLoad(p *pisa.Program) {
	if err := s.Load(p); err != nil {
		panic(err)
	}
}

// --- event sources -------------------------------------------------------

// subscribed reports whether events of kind k reach the merger: the
// architecture exposes the kind and the loaded program binds a handler
// for it. It is asked per event, so a handler bound after Load takes
// effect at once. The traffic manager's event tap (tm.TM.Wants) and the
// transmit path ask it before building an event at all.
func (s *Switch) subscribed(k events.Kind) bool {
	return s.arch.Supports(k) && s.prog != nil && s.prog.Handles(k)
}

// pushEvent routes an event from a hardware source — the traffic
// manager, the transmitters, timers, link status, the control plane, the
// program's own raises — into the merger's FIFOs when it is subscribed.
func (s *Switch) pushEvent(e events.Event) {
	if !s.subscribed(e.Kind) {
		return
	}
	e.Seq = s.evSeq
	s.evSeq++
	out := s.evq[e.Kind].Offer(e)
	// Whatever the outcome, the FIFO is non-empty now: stored/coalesced
	// added or updated state, and a drop means it was already full.
	s.evMask |= 1 << uint(e.Kind)
	if s.tel != nil {
		s.tel.ObserveOffer(s.sched.Now(), e, out)
	}
	switch out {
	case events.Coalesced:
		s.stats.EventsCoalesced[e.Kind]++
	case events.StoredShed:
		s.stats.EventsShed[e.Kind]++
	case events.Dropped:
		s.stats.EventsDropped[e.Kind]++
		return
	}
	s.wake()
}

// InjectEvent offers an event directly to the merger's FIFOs, bypassing
// the hardware sources. It models a misbehaving or saturated event
// source; internal/faults uses it for event-queue pressure storms. The
// event is subject to the same architecture/program gating and overflow
// policy as any other, and ok reports whether its state survived
// (stored or coalesced).
func (s *Switch) InjectEvent(e events.Event) (ok bool) {
	if !s.subscribed(e.Kind) {
		return false
	}
	before := s.evq[e.Kind].Drops()
	s.pushEvent(e)
	return s.evq[e.Kind].Drops() == before
}

// Inject delivers a fully received frame to an input port (the caller
// models wire timing). Frames arriving on a downed link are lost. The
// frame bytes are copied into a pooled packet before Inject returns, so
// the caller is free to reuse its buffer.
func (s *Switch) Inject(port int, data []byte) {
	if port < 0 || port >= s.cfg.Ports {
		panic(fmt.Sprintf("core: inject on invalid port %d", port))
	}
	if !s.linkUp[port] {
		s.stats.RxDropped++
		return
	}
	s.stats.RxPackets++
	s.stats.RxBytes += uint64(len(data))
	s.rxq[port] = append(s.rxq[port], s.pool.GetCopy(data, port))
	s.rxPending++
	s.wake()
}

// ConfigureTimer arms hardware timer id to fire TimerExpiration events
// with the given period. It errors if the architecture lacks timers or
// the id is out of range. Reconfiguring an armed timer replaces it.
func (s *Switch) ConfigureTimer(id int, period sim.Time) error {
	if s.arch.Timers == 0 {
		return fmt.Errorf("core: architecture %q has no timer block", s.arch.Name)
	}
	if id < 0 || id >= s.arch.Timers {
		return fmt.Errorf("core: timer id %d out of range (%d timers)", id, s.arch.Timers)
	}
	for len(s.timers) <= id {
		s.timers = append(s.timers, nil)
	}
	if s.timers[id] != nil {
		s.timers[id].Stop()
	}
	s.timers[id] = s.sched.Every(period, func() {
		s.pushEvent(events.Event{
			Kind: events.TimerExpiration, When: s.sched.Now(), TimerID: id, Port: -1,
		})
	})
	return nil
}

// StopTimer disarms timer id.
func (s *Switch) StopTimer(id int) {
	if id >= 0 && id < len(s.timers) && s.timers[id] != nil {
		s.timers[id].Stop()
		s.timers[id] = nil
	}
}

// AddGenerator configures the packet generator to emit a frame every
// period. mk builds each frame and names the output port, or -1 to let
// the pipeline route it (the frame then traverses the pipeline as a
// GeneratedPacket event). The returned frame is copied into a pooled
// packet before the next tick, so mk may reuse a scratch buffer. It
// errors when the architecture has no generator block.
func (s *Switch) AddGenerator(period sim.Time, mk func(seq uint64) (data []byte, port int)) error {
	if !s.arch.Generator {
		return fmt.Errorf("core: architecture %q has no packet generator", s.arch.Name)
	}
	g := &genTemplate{every: period, make: mk}
	s.gens = append(s.gens, g)
	g.ticker = s.sched.Every(period, func() {
		data, port := g.make(g.seq)
		g.seq++
		if data == nil {
			return
		}
		pkt := s.generated(data)
		if port >= 0 {
			// Direct injection to the TM, as when the generator is
			// configured with a fixed output port.
			s.enqueueOut(pkt, port, 0, 0, flowHashOf(data))
			return
		}
		s.genq = append(s.genq, pkt)
		s.wake()
	})
	return nil
}

// StopGenerators halts every configured packet generator.
func (s *Switch) StopGenerators() {
	for _, g := range s.gens {
		g.ticker.Stop()
	}
	s.gens = nil
}

// SetLink changes a port's link status, raising a LinkStatusChange event.
func (s *Switch) SetLink(port int, up bool) {
	if s.linkUp[port] == up {
		return
	}
	s.linkUp[port] = up
	s.pushEvent(events.Event{
		Kind: events.LinkStatusChange, When: s.sched.Now(), Port: port, Up: up,
	})
	if up {
		s.pump(port)
	}
}

// LinkIsUp reports a port's link status.
func (s *Switch) LinkIsUp(port int) bool { return s.linkUp[port] }

// TriggerControlEvent injects a ControlPlaneTriggered event carrying an
// opaque payload (the control plane's side channel into the data plane).
func (s *Switch) TriggerControlEvent(data uint64) {
	s.pushEvent(events.Event{
		Kind: events.ControlPlaneTriggered, When: s.sched.Now(), Data: data, Port: -1,
	})
}

// --- the event merger and pipeline ---------------------------------------

func (s *Switch) havePacketWork() bool {
	return s.rxPending > 0 || len(s.recirc) > 0 || len(s.genq) > 0
}

func (s *Switch) haveEventWork() bool {
	return s.evMask&s.prioMask != 0
}

func (s *Switch) haveDrainWork() bool {
	if s.prog == nil {
		return false
	}
	for _, r := range s.prog.Registers() {
		if r.Backlog() > 0 {
			return true
		}
	}
	return false
}

// wake arms the next pipeline cycle if work is pending. The cycle runs
// on a scheduler lane: re-arming re-keys the lane in the scheduler's
// lane heap, so runs of back-to-back cycles never touch the event heap
// and never allocate.
func (s *Switch) wake() {
	if s.cycleLane.Armed() {
		return
	}
	if !s.havePacketWork() && !s.haveEventWork() && !s.haveDrainWork() {
		return
	}
	at := s.nextCycleAt
	if now := s.sched.Now(); at < now {
		at = now
	}
	s.cycleLane.ArmAt(at)
}

// popPacket selects the slot's packet by merger priority: recirculated,
// then input ports (round-robin), then generated. Recirculated packets
// get at most every other slot when fresh arrivals are waiting, bounding
// the recirculation bandwidth the way real recirculation ports do (a
// program that recirculates forever cannot starve the wire).
func (s *Switch) popPacket() (*packet.Packet, events.Kind, bool) {
	rxPending := s.rxPending > 0
	if len(s.recirc) > 0 && !(s.lastRecirc && rxPending) {
		pkt := s.recirc[0]
		s.recirc = s.recirc[1:]
		s.lastRecirc = true
		return pkt, events.RecirculatedPacket, true
	}
	s.lastRecirc = false
	if rxPending {
		for i := 0; i < s.cfg.Ports; i++ {
			p := (s.rxRR + i) % s.cfg.Ports
			if s.rxHead[p] < len(s.rxq[p]) {
				pkt := s.rxq[p][s.rxHead[p]]
				s.rxq[p][s.rxHead[p]] = nil
				s.rxHead[p]++
				if s.rxHead[p] == len(s.rxq[p]) {
					s.rxq[p] = s.rxq[p][:0]
					s.rxHead[p] = 0
				}
				s.rxRR = (p + 1) % s.cfg.Ports
				s.rxPending--
				return pkt, events.IngressPacket, true
			}
		}
	}
	if len(s.genq) > 0 {
		pkt := s.genq[0]
		s.genq = s.genq[1:]
		return pkt, events.GeneratedPacket, true
	}
	return nil, 0, false
}

// runCycle fires on the cycle lane: one pipeline slot — one packet plus
// at most one event per kind — then the lane re-arms for the next cycle
// if work is still pending.
func (s *Switch) runCycle() {
	s.runSlot()
	if s.tel != nil {
		s.tel.Cycles.Inc()
	}
	s.wake()
}

// runSlot executes one pipeline cycle: the Event Merger forms a slot
// (packet plus up to one event per kind), the program's handlers run, and
// the aggregation registers drain with leftover bandwidth. A pure drain
// cycle also fast-forwards the drain-only stretch that follows it.
func (s *Switch) runSlot() {
	now := s.sched.Now()
	s.cycleIdx++
	s.nextCycleAt = now + s.cycleTime
	s.stats.Cycles++

	cycle := s.cycleIdx
	s.slotNow, s.slotCycle = now, cycle
	if s.prog != nil {
		s.prog.Tick(cycle)
	}

	// Gather this slot's events: at most one per kind, priority order.
	// In the ablation's no-piggyback mode, a slot with pending events
	// carries only events (an empty packet), and packets wait.
	var pkt *packet.Packet
	var pktKind events.Kind
	var havePkt bool
	var nEvents int
	if s.cfg.NoPiggyback {
		nEvents = s.gatherEvents()
		if nEvents == 0 {
			pkt, pktKind, havePkt = s.popPacket()
		}
	} else {
		pkt, pktKind, havePkt = s.popPacket()
		nEvents = s.gatherEvents()
	}

	switch {
	case havePkt:
		s.stats.PacketSlots++
		if s.tel != nil {
			s.tel.ObserveSlotStart(now, cycle, pktKind, true)
		}
	case nEvents > 0:
		// No packet on the wire: the merger injects an empty packet to
		// carry the event metadata (paper §5). The carrier is reused
		// across slots — it never leaves the pipeline (finishSlot skips
		// packet-less slots), so one struct per switch suffices.
		s.emptyPkt = packet.Packet{Empty: true, InPort: -1}
		pkt = &s.emptyPkt
		s.stats.EmptySlots++
		if s.tel != nil {
			s.tel.ObserveSlotStart(now, cycle, pktKind, false)
		}
	default:
		// Pure drain cycle: spare bandwidth applies aggregated updates.
		s.stats.DrainSlots++
		if s.tel != nil {
			s.tel.DrainSlots.Inc()
		}
		if s.prog != nil {
			s.prog.EndCycle()
			if !s.noFF {
				s.fastForwardDrain(now)
			}
		}
		return
	}

	if s.OnSlot != nil {
		info := SlotInfo{Cycle: cycle, At: now, PktKind: pktKind, PktLen: pkt.Len(), Empty: pkt.Empty}
		info.Events = append(info.Events, s.slotKinds[:nEvents]...)
		s.OnSlot(info)
	}

	ctx := &s.ctx
	pktEv := events.Event{Kind: pktKind, When: now, Port: pkt.InPort, PktLen: pkt.Len()}
	ctx.Reset(pkt, pktEv, now, cycle)

	if havePkt && s.prog != nil {
		// Parse headers once per slot.
		_ = ctx.Parsed.Decode(pkt.Data, &ctx.Decoded)
		ctx.Flow, ctx.FlowOK = packet.FlowOf(pkt.Data)
		if ctx.FlowOK {
			// Packet events carry the flow hash, like the paper's
			// ingress logic initializing enq_meta.flowID.
			pktEv.FlowHash = ctx.Flow.Hash()
			ctx.Ev = pktEv
		}
		if s.prog.Handles(pktKind) {
			s.stats.EventsMerged[pktKind]++
			if s.tel != nil {
				s.tel.Merged[pktKind].Inc()
			}
			s.prog.Apply(ctx)
		}
	}
	if s.prog != nil {
		for i := 0; i < nEvents; i++ {
			k := s.slotKinds[i]
			ctx.Ev = s.slotEv[i]
			s.stats.EventsMerged[k]++
			if s.tel != nil {
				s.tel.Merged[k].Inc()
				s.tel.ObserveMerge(now, cycle, s.slotEv[i], havePkt)
			}
			s.prog.Apply(ctx)
		}
		ctx.Ev = pktEv
	}

	s.finishSlot(ctx, havePkt)

	if s.prog != nil {
		s.prog.EndCycle()
	}
}

// gatherEvents pops the slot's events into slotEv/slotKinds — at most one
// per kind, in merger priority order, up to MaxEventsPerSlot — and
// returns how many it gathered.
func (s *Switch) gatherEvents() int {
	if s.evMask&s.prioMask == 0 {
		return 0
	}
	n := 0
	maxEv := s.cfg.MaxEventsPerSlot
	for _, k := range s.cfg.MergerPriority {
		if maxEv > 0 && n >= maxEv {
			break
		}
		if s.evMask&(1<<uint(k)) == 0 {
			continue
		}
		if e, ok := s.evq[k].Pop(); ok {
			s.slotEv[n] = e
			s.slotKinds[n] = k
			n++
		}
		if s.evq[k].Len() == 0 {
			s.evMask &^= 1 << uint(k)
		}
	}
	return n
}

// fastForwardDrain batches a drain-only stretch: having just executed a
// pure drain cycle at now, it computes how many further consecutive cycles
// could only ever be drain cycles — no scheduler event (which might
// deliver a packet or raise an event) fires strictly before each of them,
// and the active Run/RunBefore horizon is respected — and replays them in
// one DrainN call per register instead of re-arming the cycle lane once
// per cycle. DrainN reproduces the exact per-cycle round-robin drain
// order, per-delta lag values and drain-hook callbacks, and the counters
// below advance exactly as if each cycle had run, so every observable
// (stats, telemetry, staleness histograms, partitioned windows) is
// byte-identical to the slow path.
//
// The bound is conservative in exactly the right way: a cycle at
// now + k*cycleTime may be replayed only while k*cycleTime stays strictly
// below the next pending event (an event firing at or before a cycle's
// instant could schedule packet work for it, and at equal instants the
// event fires first — it was scheduled before the lane re-armed), and
// while the cycle stays inside the scheduler's current run horizon
// (inclusive for Run, strict for RunBefore) so windowed partitioned
// execution pauses at the same cycle it would have.
func (s *Switch) fastForwardDrain(now sim.Time) {
	if !s.haveDrainWork() {
		return
	}
	ct := int64(s.cycleTime)
	maxK := int64(1) << 62
	if na, ok := s.sched.NextAt(); ok {
		if na <= now {
			return
		}
		if k := (int64(na-now) - 1) / ct; k < maxK {
			maxK = k
		}
	}
	if limit, strict := s.sched.RunBound(); limit != sim.Forever {
		d := int64(limit - now)
		if strict {
			d--
		}
		if d < 0 {
			d = 0
		}
		if k := d / ct; k < maxK {
			maxK = k
		}
	}
	if maxK <= 0 {
		return
	}
	// Each register fast-forwards independently from the shared current
	// cycle; the stretch consumed is the longest any register needed
	// (shorter ones simply have no backlog left — their remaining cycles
	// are no-ops in the slow path too, and the next prog.Tick re-aligns
	// them).
	var used uint64
	for _, r := range s.prog.Registers() {
		if u := r.DrainN(uint64(maxK)); u > used {
			used = u
		}
	}
	if used == 0 {
		return
	}
	s.cycleIdx += used
	s.stats.Cycles += used
	s.stats.DrainSlots += used
	if s.tel != nil {
		s.tel.Cycles.Add(used)
		s.tel.DrainSlots.Add(used)
	}
	s.nextCycleAt = now + sim.Time(used+1)*s.cycleTime
}

// finishSlot applies the slot's side effects: user events, generated
// packets, recirculation, and the forwarding decision.
func (s *Switch) finishSlot(ctx *pisa.Context, havePkt bool) {
	for _, e := range ctx.Raised {
		s.pushEvent(e)
	}
	// Generated packets without a valid port wait for a slot of their
	// own; the rest go straight to the TM. The port-less ones join genq
	// first, ahead of anything an egress handler generates while the
	// others are pumped out.
	for _, g := range ctx.Generated {
		if g.Port < 0 || g.Port >= s.cfg.Ports {
			s.genq = append(s.genq, s.generated(g.Data))
		}
	}
	for _, g := range ctx.Generated {
		if g.Port >= 0 && g.Port < s.cfg.Ports {
			s.enqueueOut(s.generated(g.Data), g.Port, 0, 0, flowHashOf(g.Data))
		}
	}
	if !havePkt {
		return
	}
	pkt := ctx.Pkt
	if ctx.Recirculate {
		cl := pkt
		cl.Recirc++
		s.stats.Recirculated++
		s.recirc = append(s.recirc, cl)
		return
	}
	if ctx.EgressPort == pisa.PortDrop {
		s.stats.PipelineDrops++
		if s.OnDrop != nil {
			s.OnDrop(pkt, "pipeline-drop")
		}
		pkt.Release()
		return
	}
	if ctx.EgressPort < 0 || ctx.EgressPort >= s.cfg.Ports {
		s.stats.PipelineDrops++
		if s.OnDrop != nil {
			s.OnDrop(pkt, "bad-egress-port")
		}
		pkt.Release()
		return
	}
	var fh uint64
	if ctx.FlowOK {
		fh = ctx.Flow.Hash()
	}
	s.enqueueOutDelayed(pkt, ctx.EgressPort, ctx.Queue, ctx.Rank, fh)
}

// generated materializes a frame the program generated into a pooled
// packet.
func (s *Switch) generated(data []byte) *packet.Packet {
	s.stats.Generated++
	pkt := s.pool.GetCopy(data, -1)
	pkt.Gen = true
	return pkt
}

// pipeEntry is one packet riding the pipeline conveyor: the
// pipeline-latency delay between its slot and the traffic manager. The
// entry's (at, seq) are the exact coordinates the equivalent scheduler
// event would have carried — at is slot time + PipelineLatency cycles,
// seq was drawn from the shared counter when the slot finished — so the
// conveyor is FIFO in (at, seq) by construction.
type pipeEntry struct {
	pkt            *packet.Packet
	port, q        int
	rank, flowHash uint64
	at             sim.Time
	seq            uint64
}

// enqueueOutDelayed models the pipeline's depth: the packet reaches the
// traffic manager PipelineLatency cycles after its slot. The handoff is
// a conveyor append — no heap event, no allocation.
func (s *Switch) enqueueOutDelayed(pkt *packet.Packet, port, q int, rank, flowHash uint64) {
	at := s.sched.Now() + sim.Time(s.cfg.PipelineLatency)*s.cycleTime
	seq := s.sched.NextSeq()
	s.pipeQ = append(s.pipeQ, pipeEntry{
		pkt: pkt, port: port, q: q, rank: rank, flowHash: flowHash, at: at, seq: seq,
	})
	if at0, seq0, armed := s.auxLane.ArmedAt(); !armed || at < at0 || (at == at0 && seq < seq0) {
		s.auxLane.ArmExact(at, seq)
	}
}

// auxMin returns the coordinates of the earliest conveyor entry — the
// pipe head or the earliest pending tx completion (txMin) — and which one
// it is (txPort is -1 for the pipe head).
func (s *Switch) auxMin() (at sim.Time, seq uint64, txPort int, ok bool) {
	txPort = -1
	if s.pipeHead < len(s.pipeQ) {
		e := &s.pipeQ[s.pipeHead]
		at, seq, ok = e.at, e.seq, true
	}
	if p := s.txMin; p >= 0 && (!ok || s.txDoneAt[p] < at || (s.txDoneAt[p] == at && s.txDoneSeq[p] < seq)) {
		at, seq, txPort, ok = s.txDoneAt[p], s.txDoneSeq[p], p, true
	}
	return at, seq, txPort, ok
}

// txRescan recomputes txMin from the pending tx completions.
func (s *Switch) txRescan() {
	s.txMin = -1
	for p, pend := range s.txDonePend {
		if pend && (s.txMin < 0 || s.txDoneAt[p] < s.txDoneAt[s.txMin] ||
			(s.txDoneAt[p] == s.txDoneAt[s.txMin] && s.txDoneSeq[p] < s.txDoneSeq[s.txMin])) {
			s.txMin = p
		}
	}
}

// auxArm points the aux lane at the earliest conveyor entry, or disarms
// it when the conveyor is empty. The invariant — the aux lane is always
// armed at the conveyor minimum's exact coordinates — is what keeps
// NextAt and the drain fast-forward's horizon aware of conveyor work
// exactly as they were when each entry was a heap event.
func (s *Switch) auxArm() {
	if at, seq, _, ok := s.auxMin(); ok {
		s.auxLane.ArmExact(at, seq)
	} else {
		s.auxLane.Disarm()
	}
}

// auxFire runs the conveyor entry auxMin identified (the clock is
// already at its instant) and re-arms the lane at the new minimum.
func (s *Switch) auxFire(txPort int) {
	if txPort >= 0 {
		s.txDonePend[txPort] = false
		if txPort == s.txMin {
			s.txRescan()
		}
		s.auxArm()
		s.txComplete(txPort)
		return
	}
	e := &s.pipeQ[s.pipeHead]
	pkt, port, q, rank, fh := e.pkt, e.port, e.q, e.rank, e.flowHash
	e.pkt = nil
	s.pipeHead++
	if s.pipeHead == len(s.pipeQ) {
		s.pipeQ = s.pipeQ[:0]
		s.pipeHead = 0
	} else if s.pipeHead >= 64 && s.pipeHead*2 >= len(s.pipeQ) {
		n := copy(s.pipeQ, s.pipeQ[s.pipeHead:])
		s.pipeQ = s.pipeQ[:n]
		s.pipeHead = 0
	}
	s.auxArm()
	s.enqueueOut(pkt, port, q, rank, fh)
}

// auxRun fires on the aux lane: deliver the entry the lane was armed
// for, exactly like the heap event it stands in for.
func (s *Switch) auxRun() {
	if _, _, txPort, ok := s.auxMin(); ok {
		s.auxFire(txPort)
	}
}

func (s *Switch) enqueueOut(pkt *packet.Packet, port, q int, rank, flowHash uint64) {
	ok := s.tmgr.Enqueue(pkt, port, q, rank, flowHash, s.sched.Now())
	if !ok {
		if s.OnDrop != nil {
			s.OnDrop(pkt, "tm-overflow")
		}
		pkt.Release()
		return
	}
	s.pump(port)
}

// pump starts transmitting on a port if it is idle and has queued work.
func (s *Switch) pump(port int) {
	if s.txBusy[port] {
		return
	}
	pkt, ok := s.tmgr.Dequeue(port, s.sched.Now())
	if !ok {
		return
	}
	// PSA-style egress processing at dequeue time, when bound. The
	// context comes from a free list rather than being shared: the
	// handler's side effects (Emit -> enqueueOut -> pump) can re-enter
	// this function for another port, which then draws its own context.
	if s.prog != nil && s.prog.Handles(events.EgressPacket) && !pkt.Empty {
		var ctx *pisa.Context
		if n := len(s.egrFree); n > 0 {
			ctx = s.egrFree[n-1]
			s.egrFree = s.egrFree[:n-1]
		} else {
			ctx = &pisa.Context{}
		}
		ctx.Reset(pkt, events.Event{
			Kind: events.EgressPacket, When: s.sched.Now(), Port: port, PktLen: pkt.Len(),
		}, s.sched.Now(), s.cycleIdx)
		_ = ctx.Parsed.Decode(pkt.Data, &ctx.Decoded)
		ctx.Flow, ctx.FlowOK = packet.FlowOf(pkt.Data)
		ctx.EgressPort = port
		s.prog.Apply(ctx)
		for _, e := range ctx.Raised {
			s.pushEvent(e)
		}
		for _, g := range ctx.Generated {
			gp := s.generated(g.Data)
			if g.Port >= 0 {
				s.enqueueOut(gp, g.Port, 0, 0, flowHashOf(g.Data))
			} else {
				s.genq = append(s.genq, gp)
				s.wake()
			}
		}
		dropped := ctx.EgressPort == pisa.PortDrop
		s.egrFree = append(s.egrFree, ctx)
		if dropped {
			s.stats.PipelineDrops++
			if s.OnDrop != nil {
				s.OnDrop(pkt, "egress-drop")
			}
			pkt.Release()
			s.pump(port)
			return
		}
	}
	if !s.linkUp[port] {
		s.stats.TxDroppedLinkDown++
		if s.OnDrop != nil {
			s.OnDrop(pkt, "link-down")
		}
		pkt.Release()
		s.pump(port)
		return
	}
	s.txBusy[port] = true
	s.txPkt[port] = pkt
	ser := s.cfg.LineRate.ByteTime(pkt.Len() + WireOverhead)
	at := s.sched.Now() + ser
	seq := s.sched.NextSeq()
	s.txDoneAt[port] = at
	s.txDoneSeq[port] = seq
	s.txDonePend[port] = true
	// seq is the newest drawn, so an equal at never displaces txMin.
	if m := s.txMin; m < 0 || at < s.txDoneAt[m] {
		s.txMin = port
	}
	if at0, seq0, armed := s.auxLane.ArmedAt(); !armed || at < at0 || (at == at0 && seq < seq0) {
		s.auxLane.ArmExact(at, seq)
	}
}

// txComplete finishes a port's in-flight transmission: the packet's last
// byte has left the wire. One packet is in flight per port at a time, so
// the pre-built per-port callback needs no per-packet closure.
func (s *Switch) txComplete(port int) {
	pkt := s.txPkt[port]
	s.txPkt[port] = nil
	s.txBusy[port] = false
	s.stats.TxPackets++
	s.stats.TxBytes += uint64(pkt.Len())
	if s.subscribed(events.PacketTransmitted) {
		s.pushEvent(events.Event{
			Kind: events.PacketTransmitted, When: s.sched.Now(),
			Port: port, PktLen: pkt.Len(),
		})
	}
	if s.OnTransmit != nil {
		// netsim's transmit hook copies the frame into its own pooled
		// buffers before returning, so the packet can be recycled here.
		s.OnTransmit(port, pkt)
	}
	pkt.Release()
	s.pump(port)
}

// flowHashOf computes the flow hash of a frame, or 0 for non-IP frames.
func flowHashOf(data []byte) uint64 {
	if f, ok := packet.FlowOf(data); ok {
		return f.Hash()
	}
	return 0
}

// EventQueueLen reports the occupancy of the merger FIFO for a kind
// (monitoring).
func (s *Switch) EventQueueLen(k events.Kind) int { return s.evq[k].Len() }

// EventQueueDrops reports FIFO-full losses for a kind.
func (s *Switch) EventQueueDrops(k events.Kind) uint64 { return s.evq[k].Drops() }

// EventQueueHighWater reports the peak occupancy of a kind's FIFO.
func (s *Switch) EventQueueHighWater(k events.Kind) int { return s.evq[k].HighWater() }

// EventQueue exposes one merger FIFO read-only for audits.
func (s *Switch) EventQueue(k events.Kind) *events.Queue { return s.evq[k] }

// Inventory reports where packets currently sit inside the switch. With
// the switch's lifetime counters it closes the packet-conservation
// identity faults.Audit checks:
//
//	RxPackets + Generated == TxPackets + PipelineDrops +
//	    TxDroppedLinkDown + TM overflow drops + Inventory sum
type Inventory struct {
	RxQueued   int // received, not yet through a pipeline slot
	Recirc     int // waiting on the recirculation path
	GenQueued  int // generated, waiting for a slot
	InPipeline int // between their slot and the traffic manager
	Buffered   int // in traffic-manager output queues
	OnWire     int // being serialized onto a port right now
}

// Total sums the inventory.
func (inv Inventory) Total() int {
	return inv.RxQueued + inv.Recirc + inv.GenQueued + inv.InPipeline + inv.Buffered + inv.OnWire
}

// Inventory snapshots the switch's in-flight packet population.
func (s *Switch) Inventory() Inventory {
	var inv Inventory
	for p := range s.rxq {
		inv.RxQueued += len(s.rxq[p]) - s.rxHead[p]
	}
	inv.Recirc = len(s.recirc)
	inv.GenQueued = len(s.genq)
	inv.InPipeline = len(s.pipeQ) - s.pipeHead
	enq, deq, _, _ := s.tmgr.Stats()
	inv.Buffered = int(enq - deq)
	for _, pkt := range s.txPkt {
		if pkt != nil {
			inv.OnWire++
		}
	}
	return inv
}
