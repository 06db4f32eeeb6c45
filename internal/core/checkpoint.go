package core

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/sim"
)

// This file is the switch half of the checkpoint protocol (DESIGN.md
// §13). Snapshot captures every mutable datum of a running switch —
// staging queues, event FIFOs, program externs, the TM, in-flight
// pipeline jobs and transmissions, timers/generators, stats, and the
// packet pool — plus the (at, seq) coordinates of every pending
// scheduler event the switch owns. Restore pours that state into a
// switch rebuilt through the identical construction path (same Config,
// same Load, same ConfigureTimer/AddGenerator/EnableTelemetry calls),
// re-creating the pending events with their original coordinates so the
// resumed schedule replays the uninterrupted one exactly.

func snapPacket(e *checkpoint.Encoder, pkt *packet.Packet) {
	e.BytesField(pkt.Data)
	e.Int(pkt.InPort)
	e.Bool(pkt.Gen)
	e.Int(pkt.Recirc)
}

func restorePacket(d *checkpoint.Decoder, pool *packet.Pool) *packet.Packet {
	data := d.BytesField()
	inPort := d.Int()
	gen := d.Bool()
	recirc := d.Int()
	if d.Err() != nil {
		return nil
	}
	pkt := pool.GetCopy(data, inPort)
	pkt.Gen = gen
	pkt.Recirc = recirc
	return pkt
}

func snapTicker(e *checkpoint.Encoder, st sim.TickerState) {
	e.Bool(st.Stopped)
	e.Bool(st.Pending)
	e.I64(int64(st.At))
	e.U64(st.Seq)
}

func restoreTicker(d *checkpoint.Decoder) sim.TickerState {
	var st sim.TickerState
	st.Stopped = d.Bool()
	st.Pending = d.Bool()
	st.At = sim.Time(d.I64())
	st.Seq = d.U64()
	return st
}

// snapCoord encodes a pending/at/seq triple — the same bytes the old
// Handle-based encoding produced, so snapshots stay format-compatible
// now that tx completions live on the conveyor instead of the heap.
func snapCoord(e *checkpoint.Encoder, pending bool, at sim.Time, seq uint64) {
	e.Bool(pending)
	if !pending {
		at, seq = 0, 0
	}
	e.I64(int64(at))
	e.U64(seq)
}

// Snapshot serializes the switch at a cycle boundary (nothing mid-slot:
// call it only from a scheduler event, never from inside runCycle).
func (s *Switch) Snapshot(e *checkpoint.Encoder) {
	// Cycle machinery.
	e.I64(int64(s.nextCycleAt))
	e.U64(s.cycleIdx)
	e.I64(int64(s.slotNow))
	e.U64(s.slotCycle)
	laneAt, laneSeq, laneArmed := s.cycleLane.ArmedAt()
	e.Bool(laneArmed)
	e.I64(int64(laneAt))
	e.U64(laneSeq)

	// Packet staging queues.
	for p := range s.rxq {
		live := s.rxq[p][s.rxHead[p]:]
		e.Int(len(live))
		for _, pkt := range live {
			snapPacket(e, pkt)
		}
	}
	e.Int(s.rxRR)
	e.Bool(s.lastRecirc)
	e.Int(len(s.recirc))
	for _, pkt := range s.recirc {
		snapPacket(e, pkt)
	}
	e.Int(len(s.genq))
	for _, pkt := range s.genq {
		snapPacket(e, pkt)
	}

	// Event FIFOs and the merger's arrival counter.
	for k := 0; k < events.NumKinds; k++ {
		s.evq[k].Snapshot(e)
	}
	e.U64(s.evSeq)

	// Program externs.
	e.Bool(s.prog != nil)
	if s.prog != nil {
		s.prog.Snapshot(e)
	}

	// Traffic manager (buffered packets ride along).
	s.tmgr.Snapshot(e)

	// Per-port link/tx state.
	for p := 0; p < s.cfg.Ports; p++ {
		e.Bool(s.linkUp[p])
		e.Bool(s.txBusy[p])
		e.Bool(s.txPkt[p] != nil)
		if s.txPkt[p] != nil {
			snapPacket(e, s.txPkt[p])
		}
		snapCoord(e, s.txDonePend[p], s.txDoneAt[p], s.txDoneSeq[p])
	}

	// In-flight pipeline conveyor entries, oldest first. The conveyor is
	// FIFO in (at, seq), which is exactly the event-seq order the old
	// heap-based encoding sorted into, so the section bytes are unchanged.
	live := s.pipeQ[s.pipeHead:]
	e.Int(len(live))
	for i := range live {
		en := &live[i]
		snapPacket(e, en.pkt)
		e.Int(en.port)
		e.Int(en.q)
		e.U64(en.rank)
		e.U64(en.flowHash)
		e.I64(int64(en.at))
		e.U64(en.seq)
	}

	// Hardware timers and generators.
	e.Int(len(s.timers))
	for _, t := range s.timers {
		e.Bool(t != nil)
		if t != nil {
			snapTicker(e, t.State())
		}
	}
	e.Int(len(s.gens))
	for _, g := range s.gens {
		e.U64(g.seq)
		snapTicker(e, g.ticker.State())
	}

	// Lifetime counters.
	st := &s.stats
	e.U64(st.RxPackets)
	e.U64(st.RxBytes)
	e.U64(st.TxPackets)
	e.U64(st.TxBytes)
	e.U64(st.RxDropped)
	e.U64(st.TxDroppedLinkDown)
	e.U64(st.PipelineDrops)
	e.U64(st.Cycles)
	e.U64(st.PacketSlots)
	e.U64(st.EmptySlots)
	e.U64(st.DrainSlots)
	for k := 0; k < events.NumKinds; k++ {
		e.U64(st.EventsMerged[k])
		e.U64(st.EventsDropped[k])
		e.U64(st.EventsCoalesced[k])
		e.U64(st.EventsShed[k])
	}
	e.U64(st.Recirculated)
	e.U64(st.Generated)

	// Telemetry sampler ticker.
	e.Bool(s.telSampler != nil)
	if s.telSampler != nil {
		snapTicker(e, s.telSampler.State())
	}

	// Pool last: its free-list depth and counters describe the state
	// after every live packet above was carved out of it.
	s.pool.Snapshot(e)
}

// Restore loads a snapshot into an identically constructed switch. It
// must run before the scheduler's clock is restored (so re-created
// events are never in the past) and before any traffic is offered.
func (s *Switch) Restore(d *checkpoint.Decoder) {
	s.nextCycleAt = sim.Time(d.I64())
	s.cycleIdx = d.U64()
	s.slotNow = sim.Time(d.I64())
	s.slotCycle = d.U64()
	laneArmed := d.Bool()
	laneAt := sim.Time(d.I64())
	laneSeq := d.U64()
	if d.Err() != nil {
		return
	}
	if laneArmed {
		s.cycleLane.RestoreArm(laneAt, laneSeq)
	}

	for p := range s.rxq {
		n := d.Int()
		if d.Err() != nil {
			return
		}
		s.rxq[p] = s.rxq[p][:0]
		s.rxHead[p] = 0
		for i := 0; i < n; i++ {
			pkt := restorePacket(d, s.pool)
			if pkt == nil {
				return
			}
			s.rxq[p] = append(s.rxq[p], pkt)
		}
	}
	s.rxRR = d.Int()
	s.lastRecirc = d.Bool()
	nr := d.Int()
	if d.Err() != nil {
		return
	}
	s.recirc = s.recirc[:0]
	for i := 0; i < nr; i++ {
		pkt := restorePacket(d, s.pool)
		if pkt == nil {
			return
		}
		s.recirc = append(s.recirc, pkt)
	}
	ng := d.Int()
	if d.Err() != nil {
		return
	}
	s.genq = s.genq[:0]
	for i := 0; i < ng; i++ {
		pkt := restorePacket(d, s.pool)
		if pkt == nil {
			return
		}
		s.genq = append(s.genq, pkt)
	}

	for k := 0; k < events.NumKinds; k++ {
		s.evq[k].Restore(d)
		if d.Err() != nil {
			return
		}
	}
	s.evSeq = d.U64()

	// Rebuild the derived O(1) work-check state from the restored queues.
	s.rxPending = 0
	for p := range s.rxq {
		s.rxPending += len(s.rxq[p]) - s.rxHead[p]
	}
	s.evMask = 0
	for k := 0; k < events.NumKinds; k++ {
		if s.evq[k].Len() > 0 {
			s.evMask |= 1 << uint(k)
		}
	}

	hadProg := d.Bool()
	if d.Err() != nil {
		return
	}
	if hadProg != (s.prog != nil) {
		d.Fail(fmt.Errorf("core: switch %s: snapshot program presence (%v) differs from rebuilt switch", s.cfg.Name, hadProg))
		return
	}
	if s.prog != nil {
		s.prog.Restore(d)
		if d.Err() != nil {
			return
		}
	}

	s.tmgr.Restore(d, s.pool)
	if d.Err() != nil {
		return
	}

	for p := 0; p < s.cfg.Ports; p++ {
		s.linkUp[p] = d.Bool()
		s.txBusy[p] = d.Bool()
		hasTx := d.Bool()
		if d.Err() != nil {
			return
		}
		if hasTx {
			s.txPkt[p] = restorePacket(d, s.pool)
		} else {
			s.txPkt[p] = nil
		}
		s.txDonePend[p] = d.Bool()
		s.txDoneAt[p] = sim.Time(d.I64())
		s.txDoneSeq[p] = d.U64()
		if d.Err() != nil {
			return
		}
	}

	nj := d.Int()
	if d.Err() != nil {
		return
	}
	s.pipeQ = s.pipeQ[:0]
	s.pipeHead = 0
	for i := 0; i < nj; i++ {
		pkt := restorePacket(d, s.pool)
		if pkt == nil {
			return
		}
		var en pipeEntry
		en.pkt = pkt
		en.port = d.Int()
		en.q = d.Int()
		en.rank = d.U64()
		en.flowHash = d.U64()
		en.at = sim.Time(d.I64())
		en.seq = d.U64()
		if d.Err() != nil {
			return
		}
		s.pipeQ = append(s.pipeQ, en)
	}
	s.txRescan()
	// Re-arm the aux lane at the restored conveyor's minimum: the entries
	// carry their original coordinates, so the resumed schedule fires them
	// in exactly the uninterrupted order. RestoreArm, not auxArm: the arm
	// was already counted by the checkpointed run.
	if at, seq, _, ok := s.auxMin(); ok {
		s.auxLane.RestoreArm(at, seq)
	} else {
		s.auxLane.Disarm()
	}

	nt := d.Int()
	if d.Err() != nil {
		return
	}
	if nt != len(s.timers) {
		d.Fail(fmt.Errorf("core: switch %s: snapshot has %d timers, rebuilt switch has %d", s.cfg.Name, nt, len(s.timers)))
		return
	}
	for i, t := range s.timers {
		had := d.Bool()
		if d.Err() != nil {
			return
		}
		if had != (t != nil) {
			d.Fail(fmt.Errorf("core: switch %s: timer %d armed=%v in snapshot, %v in rebuilt switch", s.cfg.Name, i, had, t != nil))
			return
		}
		if t != nil {
			t.RestoreState(restoreTicker(d))
		}
	}
	ngen := d.Int()
	if d.Err() != nil {
		return
	}
	if ngen != len(s.gens) {
		d.Fail(fmt.Errorf("core: switch %s: snapshot has %d generators, rebuilt switch has %d", s.cfg.Name, ngen, len(s.gens)))
		return
	}
	for _, g := range s.gens {
		g.seq = d.U64()
		g.ticker.RestoreState(restoreTicker(d))
	}

	st := &s.stats
	st.RxPackets = d.U64()
	st.RxBytes = d.U64()
	st.TxPackets = d.U64()
	st.TxBytes = d.U64()
	st.RxDropped = d.U64()
	st.TxDroppedLinkDown = d.U64()
	st.PipelineDrops = d.U64()
	st.Cycles = d.U64()
	st.PacketSlots = d.U64()
	st.EmptySlots = d.U64()
	st.DrainSlots = d.U64()
	for k := 0; k < events.NumKinds; k++ {
		st.EventsMerged[k] = d.U64()
		st.EventsDropped[k] = d.U64()
		st.EventsCoalesced[k] = d.U64()
		st.EventsShed[k] = d.U64()
	}
	st.Recirculated = d.U64()
	st.Generated = d.U64()

	hadSampler := d.Bool()
	if d.Err() != nil {
		return
	}
	if hadSampler != (s.telSampler != nil) {
		d.Fail(fmt.Errorf("core: switch %s: snapshot telemetry sampler presence (%v) differs from rebuilt switch", s.cfg.Name, hadSampler))
		return
	}
	if s.telSampler != nil {
		s.telSampler.RestoreState(restoreTicker(d))
	}

	s.pool.Restore(d)
}
