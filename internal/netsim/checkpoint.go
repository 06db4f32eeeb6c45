package netsim

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// This file is the network half of the checkpoint protocol (DESIGN.md
// §13): per-link direction counters, wire sequence numbers, endpoint
// link views, frames in flight on the wire band, cross-domain mailbox
// contents, and host NIC state. Switches are snapshotted separately
// (core.Switch.Snapshot); link-transition events scheduled during
// construction are handled by Scheduler.DropFired on the restore side.

// wireFrame is one in-flight frame copy gathered from a wire band.
type wireFrame struct {
	at  sim.Time
	seq uint64
	buf []byte
}

// inFlight gathers every wire-band frame per (link, direction), sorted
// by wire sequence so the snapshot section is deterministic regardless
// of heap layout.
func (n *Network) inFlight() map[*Link][2][]wireFrame {
	out := make(map[*Link][2][]wireFrame)
	seen := make(map[*sim.Scheduler]bool)
	scan := func(s *sim.Scheduler) {
		if s == nil || seen[s] {
			return
		}
		seen[s] = true
		s.EachWire(func(at sim.Time, k1, k2 uint64, fn sim.Action, r sim.Runner) {
			switch v := r.(type) {
			case *flight:
				frames := out[v.l]
				frames[v.dir] = append(frames[v.dir], wireFrame{at: at, seq: k2, buf: v.buf})
				out[v.l] = frames
			case *mailFlight:
				frames := out[v.l]
				frames[v.dir] = append(frames[v.dir], wireFrame{at: at, seq: k2, buf: v.buf})
				out[v.l] = frames
			}
		})
	}
	scan(n.sched)
	for _, l := range n.links {
		scan(l.sched[0])
		scan(l.sched[1])
	}
	for _, frames := range out {
		for dir := 0; dir < 2; dir++ {
			sort.Slice(frames[dir], func(i, j int) bool {
				return frames[dir][i].seq < frames[dir][j].seq
			})
		}
	}
	return out
}

// Snapshot serializes the network's link and host state.
func (n *Network) Snapshot(e *checkpoint.Encoder) {
	flights := n.inFlight()
	e.Int(len(n.links))
	for _, l := range n.links {
		e.Bool(l.sideUp[0])
		e.Bool(l.sideUp[1])
		for dir := 0; dir < 2; dir++ {
			c := &l.dir[dir]
			e.U64(c.Sent)
			e.U64(c.LostAtSend)
			e.U64(c.Dropped)
			e.U64(c.Duplicated)
			e.U64(c.Propagated)
			e.U64(c.Delivered)
			e.U64(c.LostInFlight)
			e.U64(l.wireSeq[dir])
		}
		lf := flights[l]
		for dir := 0; dir < 2; dir++ {
			e.Int(len(lf[dir]))
			for _, f := range lf[dir] {
				e.I64(int64(f.at))
				e.U64(f.seq)
				e.BytesField(f.buf)
			}
			// Cross-domain frames parked in the mailbox, awaiting the next
			// barrier (always empty for non-cross links and at barriers).
			e.Int(len(l.mail[dir]))
			for _, m := range l.mail[dir] {
				e.I64(int64(m.at))
				e.U64(m.seq)
				e.BytesField(m.buf)
			}
		}
	}
	e.Int(len(n.hosts))
	for _, h := range n.hosts {
		e.U64(h.RxPackets)
		e.U64(h.RxBytes)
		e.U64(h.HeldFrames)
		e.I64(int64(h.busy))
		e.Bool(h.paused)
		e.Int(len(h.held))
		for _, f := range h.held {
			e.BytesField(f)
		}
		// Pending NIC serializations, ordered by event seq.
		txs := make([]*hostTx, len(h.txActive))
		copy(txs, h.txActive)
		sort.Slice(txs, func(i, j int) bool {
			_, si, _ := txs[i].hd.When()
			_, sj, _ := txs[j].hd.When()
			return si < sj
		})
		e.Int(len(txs))
		for _, t := range txs {
			at, seq, ok := t.hd.When()
			if !ok {
				panic("netsim: active host tx with no pending event")
			}
			e.I64(int64(at))
			e.U64(seq)
			e.BytesField(t.buf)
		}
	}
}

// Restore loads a network snapshot into an identically constructed
// network (same topology, same link order, same hosts). In-flight
// frames are re-created on the wire bands with their original (arrival,
// link, seq) keys; host serializations with their original (at, seq).
func (n *Network) Restore(d *checkpoint.Decoder) {
	nl := d.Int()
	if d.Err() != nil {
		return
	}
	if nl != len(n.links) {
		d.Fail(fmt.Errorf("netsim: snapshot has %d links, network has %d", nl, len(n.links)))
		return
	}
	for _, l := range n.links {
		l.sideUp[0] = d.Bool()
		l.sideUp[1] = d.Bool()
		for dir := 0; dir < 2; dir++ {
			c := &l.dir[dir]
			c.Sent = d.U64()
			c.LostAtSend = d.U64()
			c.Dropped = d.U64()
			c.Duplicated = d.U64()
			c.Propagated = d.U64()
			c.Delivered = d.U64()
			c.LostInFlight = d.U64()
			l.wireSeq[dir] = d.U64()
		}
		// The attached switches' own port views (linkUp) come back via
		// core.Switch.Restore; here only the link's endpoint views and
		// its in-flight frames are rebuilt.
		for dir := 0; dir < 2; dir++ {
			nf := d.Int()
			if d.Err() != nil {
				return
			}
			for i := 0; i < nf; i++ {
				at := sim.Time(d.I64())
				seq := d.U64()
				buf := d.BytesField()
				if d.Err() != nil {
					return
				}
				var r sim.Runner
				if l.cross {
					m := &mailFlight{n: n, l: l, dir: dir, at: at, seq: seq}
					m.buf = append(m.buf, buf...)
					r = m
				} else {
					f := &flight{n: n, l: l, dir: dir}
					f.buf = append(f.buf, buf...)
					r = f
				}
				l.sched[1-dir].RestoreWireRunner(at, l.wireKey(dir), seq, r)
			}
			nm := d.Int()
			if d.Err() != nil {
				return
			}
			l.mail[dir] = l.mail[dir][:0]
			for i := 0; i < nm; i++ {
				m := &mailFlight{n: n, l: l, dir: dir}
				m.at = sim.Time(d.I64())
				m.seq = d.U64()
				m.buf = append(m.buf, d.BytesField()...)
				if d.Err() != nil {
					return
				}
				l.mail[dir] = append(l.mail[dir], m)
			}
		}
	}
	nh := d.Int()
	if d.Err() != nil {
		return
	}
	if nh != len(n.hosts) {
		d.Fail(fmt.Errorf("netsim: snapshot has %d hosts, network has %d", nh, len(n.hosts)))
		return
	}
	for _, h := range n.hosts {
		h.RxPackets = d.U64()
		h.RxBytes = d.U64()
		h.HeldFrames = d.U64()
		h.busy = sim.Time(d.I64())
		h.paused = d.Bool()
		nheld := d.Int()
		if d.Err() != nil {
			return
		}
		h.held = h.held[:0]
		for i := 0; i < nheld; i++ {
			h.held = append(h.held, append([]byte(nil), d.BytesField()...))
		}
		ntx := d.Int()
		if d.Err() != nil {
			return
		}
		h.txActive = h.txActive[:0]
		for i := 0; i < ntx; i++ {
			at := sim.Time(d.I64())
			seq := d.U64()
			buf := d.BytesField()
			if d.Err() != nil {
				return
			}
			t := &hostTx{h: h}
			t.buf = append(t.buf, buf...)
			t.idx = len(h.txActive)
			h.txActive = append(h.txActive, t)
			t.hd = h.Scheduler().RestoreAtRunner(at, seq, t)
		}
	}
}
