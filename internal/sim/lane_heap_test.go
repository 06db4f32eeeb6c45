package sim

import (
	"fmt"
	"testing"
)

// refItem is one pending entry of the reference model: a heap event
// ('E'), a wire-band event ('W') or a lane ('L', live while armed).
type refItem struct {
	kind   byte
	id     int
	at     Time
	seq    uint64 // 'E' and 'L'
	k1, k2 uint64 // 'W'
	live   bool
}

// refModel is the scheduler's ordering contract written as a linear
// scan: the wire band first at equal instants, then heap events and
// lanes by (at, seq), a lane before a heap event at identical
// coordinates, lanes among themselves by registration order.
type refModel struct {
	seq   uint64
	items []*refItem // 'E' and 'W'
	lanes []*refItem // indexed by lane registration order

	laneArms, auxArms uint64
}

func refOrdBefore(a, b *refItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	if a.kind != b.kind {
		return a.kind == 'L'
	}
	return a.id < b.id
}

func refWireBefore(a, b *refItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	return a.k2 < b.k2
}

// next returns the entry the scheduler must fire next, or nil.
func (m *refModel) next() *refItem {
	var ord, wire *refItem
	for _, it := range m.items {
		switch {
		case !it.live:
		case it.kind == 'W':
			if wire == nil || refWireBefore(it, wire) {
				wire = it
			}
		case ord == nil || refOrdBefore(it, ord):
			ord = it
		}
	}
	for _, l := range m.lanes {
		if l.live && (ord == nil || refOrdBefore(l, ord)) {
			ord = l
		}
	}
	if wire != nil && (ord == nil || wire.at <= ord.at) {
		return wire
	}
	return ord
}

// laneOps applies the same random operations to a Scheduler and to
// the reference model, and checks every firing against the model.
type laneOps struct {
	t       *testing.T
	r       *RNG
	s       *Scheduler
	m       *refModel
	lanes   []*Lane
	events  []*refItem
	handles []Handle
	k2      uint64
	fired   int
	limit   Time
	strict  bool
}

func newLaneOps(t *testing.T, seed uint64, nLanes int) *laneOps {
	d := &laneOps{t: t, r: NewRNG(seed), s: NewScheduler(), m: &refModel{}, limit: Forever}
	for i := 0; i < nLanes; i++ {
		it := &refItem{kind: 'L', id: i}
		d.m.lanes = append(d.m.lanes, it)
		var l *Lane
		l = d.s.NewLane(func() {
			d.fire(it)
			// Re-arm from the callback, the way cycle and aux lanes do.
			switch d.r.Intn(4) {
			case 0, 1:
				d.armAt(l, it)
			case 2:
				d.armExact(l, it, false)
			}
		})
		d.lanes = append(d.lanes, l)
	}
	return d
}

// dt is a short random delay: entries crowd onto few instants, so ties
// on at are the common case.
func (d *laneOps) dt() Time { return Time(d.r.Intn(4)) * Nanosecond }

func (d *laneOps) fire(it *refItem) {
	d.t.Helper()
	want := d.m.next()
	if want != it {
		d.t.Fatalf("fired %c%d at %v, reference wants %v", it.kind, it.id, d.s.Now(), describe(want))
	}
	if d.s.Now() != it.at {
		d.t.Fatalf("%c%d fired with clock %v, armed for %v", it.kind, it.id, d.s.Now(), it.at)
	}
	if it.at > d.limit || (d.strict && it.at == d.limit) {
		d.t.Fatalf("%c%d at %v fired past the run bound %v (strict %v)", it.kind, it.id, it.at, d.limit, d.strict)
	}
	it.live = false
	d.fired++
	if d.fired > 1_000_000 {
		d.t.Fatal("runaway: more than 1e6 firings")
	}
	if d.r.Intn(3) == 0 {
		d.op()
	}
}

func describe(it *refItem) string {
	if it == nil {
		return "nothing"
	}
	return fmt.Sprintf("%c%d (at %v seq %d k %d/%d)", it.kind, it.id, it.at, it.seq, it.k1, it.k2)
}

func (d *laneOps) armAt(l *Lane, it *refItem) {
	at := d.s.Now() + d.dt()
	l.ArmAt(at)
	it.at, it.seq, it.live = at, d.m.seq, true
	d.m.seq++
	d.m.laneArms++
}

// armExact arms at a fresh NextSeq coordinate or, sometimes, at another
// lane's exact (at, seq) or an older seq, so identical coordinates and
// out-of-order seqs both occur. restore uses RestoreArm, which must not
// count the arm.
func (d *laneOps) armExact(l *Lane, it *refItem, restore bool) {
	at := d.s.Now() + d.dt()
	var seq uint64
	switch d.r.Intn(4) {
	case 0:
		other := d.m.lanes[d.r.Intn(len(d.m.lanes))]
		if other.live && other.at >= d.s.Now() {
			at, seq = other.at, other.seq
			break
		}
		fallthrough
	case 1:
		seq = uint64(d.r.Int63n(int64(d.m.seq) + 1))
	default:
		seq = d.s.NextSeq()
		d.m.seq++
	}
	if restore {
		l.RestoreArm(at, seq)
	} else {
		l.ArmExact(at, seq)
		d.m.auxArms++
	}
	it.at, it.seq, it.live = at, seq, true
}

// op applies one random operation to both the scheduler and the model.
func (d *laneOps) op() {
	now := d.s.Now()
	i := d.r.Intn(len(d.lanes))
	l, li := d.lanes[i], d.m.lanes[i]
	switch d.r.Intn(8) {
	case 0:
		it := &refItem{kind: 'E', id: len(d.events), at: now + d.dt(), seq: d.m.seq, live: true}
		d.m.seq++
		d.m.items = append(d.m.items, it)
		d.events = append(d.events, it)
		d.handles = append(d.handles, d.s.At(it.at, func() { d.fire(it) }))
	case 1:
		d.k2++
		it := &refItem{kind: 'W', id: int(d.k2), at: now + d.dt(), k1: uint64(d.r.Intn(3)), k2: d.k2, live: true}
		d.m.items = append(d.m.items, it)
		d.s.AtWire(it.at, it.k1, it.k2, func() { d.fire(it) })
	case 2:
		if len(d.handles) > 0 {
			j := d.r.Intn(len(d.handles))
			d.handles[j].Cancel()
			d.events[j].live = false
		}
	case 3:
		d.armAt(l, li)
	case 4:
		d.armExact(l, li, false)
	case 5:
		d.armExact(l, li, true)
	case 6:
		l.Disarm()
		li.live = false
	case 7:
		d.check()
	}
}

// check compares the read-only queries against the model.
func (d *laneOps) check() {
	d.t.Helper()
	s, m := d.s, d.m
	want := m.next()
	at, ok := s.NextAt()
	if ok != (want != nil) || (ok && at != want.at) {
		d.t.Fatalf("NextAt = (%v, %v), reference next is %v", at, ok, describe(want))
	}
	armed := 0
	for i, l := range d.lanes {
		li := m.lanes[i]
		at, seq, ok := l.ArmedAt()
		if ok != li.live || l.Armed() != li.live || (ok && (at != li.at || seq != li.seq)) {
			d.t.Fatalf("lane %d: ArmedAt = (%v, %d, %v), reference (%v, %d, %v)", i, at, seq, ok, li.at, li.seq, li.live)
		}
		if ok {
			armed++
		}
	}
	if len(s.laneQ) != armed {
		d.t.Fatalf("lane heap holds %d lanes, %d armed", len(s.laneQ), armed)
	}
	if s.laneArms != m.laneArms || s.auxArms != m.auxArms {
		d.t.Fatalf("arm counters (%d, %d), reference (%d, %d)", s.laneArms, s.auxArms, m.laneArms, m.auxArms)
	}
}

// TestLaneHeapMatchesScan drives random arms, exact arms, restores,
// disarms and callback re-arms on 1 to 640 lanes, interleaved with heap
// events, cancelled heap events and wire events, and checks Step,
// RunBefore, Run and NextAt against the linear-scan model.
func TestLaneHeapMatchesScan(t *testing.T) {
	for _, n := range []int{1, 8, 160, 640} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("lanes=%d/seed=%d", n, seed), func(t *testing.T) {
				d := newLaneOps(t, seed*1000+uint64(n), n)
				for i := 0; i < n; i++ {
					d.op()
				}
				for step := 0; step < 1500; step++ {
					for k := d.r.Intn(4); k > 0; k-- {
						d.op()
					}
					d.check()
					start := d.fired
					switch d.r.Intn(3) {
					case 0:
						want := d.m.next()
						if ok := d.s.Step(); ok != (want != nil) || d.fired != start+b2i(ok) {
							t.Fatalf("Step = %v after %d firings, reference next is %v", ok, d.fired-start, describe(want))
						}
					case 1:
						limit := d.s.Now() + Time(d.r.Intn(6))*Nanosecond
						d.limit, d.strict = limit, true
						fired := d.s.RunBefore(limit)
						d.limit, d.strict = Forever, false
						if int(fired) != d.fired-start {
							t.Fatalf("RunBefore returned %d, %d callbacks ran", fired, d.fired-start)
						}
						if next := d.m.next(); next != nil && next.at < limit {
							t.Fatalf("RunBefore(%v) left %v pending before its edge", limit, describe(next))
						}
					case 2:
						until := d.s.Now() + Time(d.r.Intn(6))*Nanosecond
						d.limit = until
						fired := d.s.Run(until)
						d.limit = Forever
						if int(fired) != d.fired-start {
							t.Fatalf("Run returned %d, %d callbacks ran", fired, d.fired-start)
						}
						if next := d.m.next(); next != nil && next.at <= until {
							t.Fatalf("Run(%v) left %v pending", until, describe(next))
						}
					}
				}
				d.check()
			})
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRestoreArmKeepsArmCounters checks that restoring lanes from a
// checkpoint leaves the arm counters where construction left them (a
// restore re-creates arms the checkpointed run already counted), and
// that the resumed run then counts exactly the arms, and fires exactly
// the order, of the uninterrupted run.
func TestRestoreArmKeepsArmCounters(t *testing.T) {
	type rig struct {
		s          *Scheduler
		cycle, aux *Lane
		log        []string
	}
	build := func() *rig {
		r := &rig{s: NewScheduler()}
		r.cycle = r.s.NewLane(func() {
			r.log = append(r.log, fmt.Sprintf("cycle@%v", r.s.Now()))
			r.cycle.ArmAt(r.s.Now() + 3*Nanosecond)
			r.aux.ArmExact(r.s.Now()+2*Nanosecond, r.s.NextSeq())
		})
		r.aux = r.s.NewLane(func() {
			r.log = append(r.log, fmt.Sprintf("aux@%v", r.s.Now()))
		})
		return r
	}

	src := build()
	src.cycle.ArmAt(Nanosecond)
	src.s.Run(20 * Nanosecond)
	laneArms, auxArms := src.s.laneArms, src.s.auxArms
	cAt, cSeq, cOK := src.cycle.ArmedAt()
	aAt, aSeq, aOK := src.aux.ArmedAt()
	clock := src.s.Clock()
	if !cOK || !aOK {
		t.Fatalf("want both lanes armed at the snapshot, got cycle %v aux %v", cOK, aOK)
	}
	if src.s.laneArms != laneArms || src.s.auxArms != auxArms {
		t.Fatal("taking a snapshot moved the arm counters")
	}

	dst := build()
	beforeLane, beforeAux := dst.s.laneArms, dst.s.auxArms
	dst.cycle.RestoreArm(cAt, cSeq)
	dst.aux.RestoreArm(aAt, aSeq)
	dst.s.RestoreClock(clock)
	if dst.s.laneArms != beforeLane || dst.s.auxArms != beforeAux {
		t.Errorf("restore moved the arm counters: lane %d->%d, aux %d->%d",
			beforeLane, dst.s.laneArms, beforeAux, dst.s.auxArms)
	}

	src.log = nil
	src.s.Run(60 * Nanosecond)
	dst.s.Run(60 * Nanosecond)
	if fmt.Sprint(src.log) != fmt.Sprint(dst.log) {
		t.Errorf("resumed order %v, uninterrupted %v", dst.log, src.log)
	}
	if got, want := dst.s.laneArms-beforeLane, src.s.laneArms-laneArms; got != want {
		t.Errorf("resumed run counted %d lane arms, uninterrupted run %d", got, want)
	}
	if got, want := dst.s.auxArms-beforeAux, src.s.auxArms-auxArms; got != want {
		t.Errorf("resumed run counted %d aux arms, uninterrupted run %d", got, want)
	}
}
