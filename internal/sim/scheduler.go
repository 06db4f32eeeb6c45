package sim

import "repro/internal/telemetry/self"

// Action is a callback executed when a scheduled event fires.
type Action func()

// Runner is implemented by pooled callback objects. AtRunner/AfterRunner
// accept a Runner instead of a closure so hot paths that would otherwise
// allocate a capturing closure per call can schedule a long-lived object
// (typically drawn from a free list) with no per-call allocation.
type Runner interface {
	Run()
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid. Handles stay safe after the event fires: the
// scheduler recycles event records through a free list, and each reuse
// bumps a generation counter that stale handles fail to match.
type Handle struct {
	ev  *schedEvent
	gen uint64
}

// Pending reports whether the event behind h is still waiting to fire
// (not yet fired and not cancelled).
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.cancelled
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.cancelled = true
	}
}

type schedEvent struct {
	at        Time
	seq       uint64 // insertion order; breaks ties deterministically
	gen       uint64 // bumped on every free-list recycle; validates Handles
	fn        Action
	runner    Runner
	index     int // heap index
	cancelled bool
}

// wireEvent is an entry in the scheduler's wire band: an externally-keyed
// event (a frame arriving off a link) ordered by (at, k1, k2) rather than
// by insertion sequence. The key is engine-independent — it is derived
// from the link and the sender's per-direction frame counter, not from
// when this scheduler happened to learn about the frame — which is what
// lets a partitioned run schedule arrivals at barrier-drain time and
// still fire them in exactly the order the single-scheduler run would.
type wireEvent struct {
	at     Time
	k1, k2 uint64
	fn     Action
	runner Runner
}

// wireHeap is a binary min-heap of wireEvents ordered by (at, k1, k2),
// sifted manually: container/heap would box every push through an
// interface and the wire band sits on the per-frame hot path.
type wireHeap []wireEvent

func (h wireHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].k1 != h[j].k1 {
		return h[i].k1 < h[j].k1
	}
	return h[i].k2 < h[j].k2
}

func (h *wireHeap) push(w wireEvent) {
	*h = append(*h, w)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *wireHeap) pop() wireEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = wireEvent{}
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// eventHeap is a binary min-heap of ordinary events ordered by (at, seq),
// sifted manually like wireHeap: container/heap dispatches Less/Swap
// through an interface on every comparison, and the event heap is the
// single hottest structure in the engine. Each event's index field is
// kept current on every move — Handle cancellation and checkpoint
// restore (internal/sim/checkpoint.go) rely on it.
type eventHeap []*schedEvent

// heapLess orders events by (at, seq).
func heapLess(a, b *schedEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapSiftUp restores the heap property upward from index i, holding the
// moving event in a register and shifting parents down (one store per
// level instead of a full swap).
func (s *Scheduler) heapSiftUp(i int) {
	q := s.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !heapLess(ev, p) {
			break
		}
		q[i] = p
		p.index = i
		i = parent
	}
	q[i] = ev
	ev.index = i
}

// heapSiftDown restores the heap property downward from index i.
func (s *Scheduler) heapSiftDown(i int) {
	q := s.queue
	n := len(q)
	ev := q[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && heapLess(q[r], q[l]) {
			min = r
		}
		if !heapLess(q[min], ev) {
			break
		}
		q[i] = q[min]
		q[i].index = i
		i = min
	}
	q[i] = ev
	ev.index = i
}

// heapPush appends ev and sifts it into place.
func (s *Scheduler) heapPush(ev *schedEvent) {
	ev.index = len(s.queue)
	s.queue = append(s.queue, ev)
	s.heapSiftUp(ev.index)
}

// heapPopHead removes and returns the heap head.
func (s *Scheduler) heapPopHead() *schedEvent {
	q := s.queue
	ev := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	if n > 0 {
		q[0] = last
		last.index = 0
		s.heapSiftDown(0)
	}
	return ev
}

// Scheduler is a deterministic discrete-event scheduler. Events scheduled
// for the same instant fire in the order they were scheduled. Scheduler is
// not safe for concurrent use; a simulation is a single logical thread.
type Scheduler struct {
	now    Time
	seq    uint64
	queue  eventHeap
	wire   wireHeap
	laneQ  laneHeap
	free   []*schedEvent
	fired  uint64
	halted bool

	// laneArms/auxArms count ArmAt and ArmExact calls; together with
	// fired they feed the wall-clock self-metrics plane. They are plain
	// fields bumped on the single-threaded hot path and published as
	// deltas only at Run/RunBefore/RunAll exit (publishSelf), so the
	// per-event cost of observability is zero — not even an atomic.
	laneArms, auxArms uint64
	// pub* are the values already published to the self plane; the next
	// publishSelf adds only the difference.
	pubFired, pubLaneArms, pubAuxArms uint64

	// runLimit/runStrict record the horizon of the Run/RunBefore call in
	// progress (Forever/false outside any run). Event callbacks that can
	// batch future work — the switch's drain fast-forward — consult
	// RunBound so they never compute past the instant the current run
	// would have stopped at, which keeps partitioned windowed execution
	// byte-identical to single-threaded runs.
	runLimit  Time
	runStrict bool

	// lanes counts registered lanes; each lane's registration index
	// breaks (at, seq) ties in the lane heap.
	lanes int
}

// NewScheduler returns a Scheduler with the clock at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{runLimit: Forever}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of events waiting to fire (including
// cancelled events not yet discarded and armed lanes).
func (s *Scheduler) Pending() int {
	return len(s.queue) + len(s.wire) + len(s.laneQ)
}

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// alloc draws an event record from the free list, or allocates one.
func (s *Scheduler) alloc() *schedEvent {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free = s.free[:n-1]
		return ev
	}
	return &schedEvent{}
}

// release returns a fired or cancelled event record to the free list,
// invalidating outstanding Handles via the generation counter.
func (s *Scheduler) release(ev *schedEvent) {
	ev.gen++
	ev.fn = nil
	ev.runner = nil
	ev.cancelled = false
	s.free = append(s.free, ev)
}

// At schedules fn to run at the absolute time at. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (s *Scheduler) At(at Time, fn Action) Handle {
	ev := s.schedule(at)
	ev.fn = fn
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn Action) Handle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.At(s.now+d, fn)
}

// AtRunner schedules r.Run to execute at the absolute time at. It is the
// allocation-free variant of At for pooled callback objects.
func (s *Scheduler) AtRunner(at Time, r Runner) Handle {
	ev := s.schedule(at)
	ev.runner = r
	return Handle{ev: ev, gen: ev.gen}
}

// AfterRunner schedules r.Run to execute d after the current time.
func (s *Scheduler) AfterRunner(d Time, r Runner) Handle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return s.AtRunner(s.now+d, r)
}

func (s *Scheduler) schedule(at Time) *schedEvent {
	if at < s.now {
		panic("sim: event scheduled in the past")
	}
	ev := s.alloc()
	ev.at = at
	ev.seq = s.seq
	s.seq++
	s.heapPush(ev)
	return ev
}

// AtWire schedules fn on the wire band: at equal timestamps wire events
// fire before ordinary events and lanes, ordered among themselves by the
// caller-supplied key (k1, then k2). The key must be engine-independent
// (netsim uses k1 = directed-link id and k2 = the sender's frame counter
// on that direction) so that every partitioning of a topology fires the
// same arrivals in the same order. Wire events cannot be cancelled.
func (s *Scheduler) AtWire(at Time, k1, k2 uint64, fn Action) {
	if at < s.now {
		panic("sim: wire event scheduled in the past")
	}
	s.wire.push(wireEvent{at: at, k1: k1, k2: k2, fn: fn})
}

// AtWireRunner is the allocation-free variant of AtWire for pooled
// callback objects, mirroring AtRunner/At. Ordering semantics are
// identical.
func (s *Scheduler) AtWireRunner(at Time, k1, k2 uint64, r Runner) {
	if at < s.now {
		panic("sim: wire event scheduled in the past")
	}
	s.wire.push(wireEvent{at: at, k1: k1, k2: k2, runner: r})
}

// Every schedules fn to run periodically with the given period, starting
// one period from now. The returned Ticker can be stopped. fn observes the
// scheduler time via Now.
func (s *Scheduler) Every(period Time, fn Action) *Ticker {
	if period <= 0 {
		panic("sim: non-positive period")
	}
	t := &Ticker{s: s, period: period, fn: fn}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.h = t.s.After(t.period, t.tick)
		}
	}
	t.h = s.After(period, t.tick)
	return t
}

// Ticker repeatedly fires an action at a fixed period until stopped.
type Ticker struct {
	s       *Scheduler
	period  Time
	fn      Action
	tick    Action // created once; re-arming does not allocate
	h       Handle
	stopped bool
}

// Stop cancels future firings. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.h.Cancel()
}

// Period returns the ticker's firing period.
func (t *Ticker) Period() Time { return t.period }

// Lane is a pre-registered periodic-work fast path: one pending
// occurrence of a fixed callback, re-armed by the callback itself. A
// self-rearming driver (the switch's pipeline cycle) that went through
// At would pay an event record, a free-list round trip, and a closure
// allocation per firing; a Lane is a fixed entry in the scheduler's lane
// heap, re-keyed in place when it is re-armed.
//
// Arming draws a sequence number from the same counter as At, so a lane
// firing orders against heap events exactly as the equivalent At call
// would: earlier-armed work fires first at the same instant.
type Lane struct {
	s   *Scheduler
	fn  Action
	at  Time
	seq uint64
	id  int // registration order; breaks (at, seq) ties
	idx int // position in the lane heap; -1 when disarmed
}

// laneArity is the lane heap's fan-out. Four children per node halve
// the heap's depth against a binary heap; with 160 to 640 lanes that
// re-keys faster, and it ties with binary at 8 lanes (EXPERIMENTS.md).
const laneArity = 4

// laneHeap is an indexed min-heap of armed lanes ordered by (at, seq,
// id). Every lane records its own position (idx), so arming, re-arming
// and disarming re-key or remove the lane in place in O(log lanes), and
// the earliest lane is always laneQ[0]. The id tie-break only matters
// for two lanes armed at identical (at, seq) coordinates, which only
// ArmExact or RestoreArm with a reused seq can produce: the
// earlier-registered lane fires first, so the order stays total.
type laneHeap []*Lane

func laneLess(a, b *Lane) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.id < b.id
}

// siftUp moves l from the hole at index i toward the root and stores it
// where it comes to rest, shifting parents down one store per level.
func (h laneHeap) siftUp(i int, l *Lane) {
	for i > 0 {
		parent := (i - 1) / laneArity
		p := h[parent]
		if !laneLess(l, p) {
			break
		}
		h[i] = p
		p.idx = i
		i = parent
	}
	h[i] = l
	l.idx = i
}

// siftDown moves l from the hole at index i toward the leaves.
func (h laneHeap) siftDown(i int, l *Lane) {
	n := len(h)
	for {
		first := laneArity*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+laneArity && c < n; c++ {
			if laneLess(h[c], h[min]) {
				min = c
			}
		}
		m := h[min]
		if !laneLess(m, l) {
			break
		}
		h[i] = m
		m.idx = i
		i = min
	}
	h[i] = l
	l.idx = i
}

// fix stores l, whose key may have moved either way, at the hole at
// index i.
func (h laneHeap) fix(i int, l *Lane) {
	if i > 0 && laneLess(l, h[(i-1)/laneArity]) {
		h.siftUp(i, l)
	} else {
		h.siftDown(i, l)
	}
}

// laneSet places l in the heap at its current (at, seq), pushing it when
// disarmed and re-keying it in place when already armed.
func (s *Scheduler) laneSet(l *Lane) {
	if l.idx >= 0 {
		s.laneQ.fix(l.idx, l)
		return
	}
	s.laneQ = append(s.laneQ, l)
	s.laneQ.siftUp(len(s.laneQ)-1, l)
}

// laneRemove takes the armed lane l out of the heap.
func (s *Scheduler) laneRemove(l *Lane) {
	q := s.laneQ
	i, n := l.idx, len(q)-1
	last := q[n]
	q[n] = nil
	q = q[:n]
	s.laneQ = q
	l.idx = -1
	if i < n {
		q.fix(i, last)
	}
}

// NewLane registers fn as a lane on the scheduler. The callback is fixed
// for the lane's lifetime. Armed lanes live in an indexed heap, so
// picking the next lane is O(1) and arming, re-arming, disarming or
// firing one costs O(log lanes), however many lanes are registered.
func (s *Scheduler) NewLane(fn Action) *Lane {
	l := &Lane{s: s, fn: fn, id: s.lanes, idx: -1}
	s.lanes++
	return l
}

// ArmAt schedules the lane's next firing at the absolute time at.
// Re-arming an armed lane moves its firing time. Arming in the past
// panics, like At.
func (l *Lane) ArmAt(at Time) {
	s := l.s
	if at < s.now {
		panic("sim: lane armed in the past")
	}
	l.rekey(at, s.seq)
	s.seq++
	s.laneArms++
}

// ArmExact arms the lane at explicit (at, seq) coordinates instead of
// drawing a fresh sequence number. The caller owns work that already has
// a position in the global event order — a conveyor entry that drew its
// seq (NextSeq) when it was scheduled — and the lane must fire in
// exactly that position. No past-check is applied.
func (l *Lane) ArmExact(at Time, seq uint64) {
	l.rekey(at, seq)
	l.s.auxArms++
}

// rekey arms the lane at (at, seq) without counting an arm.
func (l *Lane) rekey(at Time, seq uint64) {
	l.at = at
	l.seq = seq
	l.s.laneSet(l)
}

// Armed reports whether the lane has a pending firing.
func (l *Lane) Armed() bool { return l.idx >= 0 }

// Disarm cancels the pending firing, if any.
func (l *Lane) Disarm() {
	if l.idx >= 0 {
		l.s.laneRemove(l)
	}
}

// nextLane returns the earliest armed lane, or nil.
func (s *Scheduler) nextLane() *Lane {
	if len(s.laneQ) == 0 {
		return nil
	}
	return s.laneQ[0]
}

// peekHeap discards cancelled events from the heap head and returns the
// next live event without removing it, or nil.
func (s *Scheduler) peekHeap() *schedEvent {
	for len(s.queue) > 0 {
		ev := s.queue[0]
		if !ev.cancelled {
			return ev
		}
		s.heapPopHead()
		s.release(ev)
	}
	return nil
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. At equal timestamps the wire band fires first; ordinary
// events and lanes then interleave by shared sequence number. It returns
// false when no events remain.
func (s *Scheduler) Step() bool { return s.stepBounded(Forever, false) }

// stepBounded is the fused core of Step/Run/RunBefore: one candidate scan
// (heap head, earliest lane, wire head) picks the winner, checks it
// against the bound, and fires it. Run's old loop scanned every candidate
// twice per event — once in NextAt to test the horizon, once in Step to
// fire — and the scan is the engine's hottest code. It returns false
// without firing when nothing is pending or the earliest event lies past
// the bound (at > limit, or at == limit when strict).
func (s *Scheduler) stepBounded(limit Time, strict bool) bool {
	ev := s.peekHeap()
	lane := s.nextLane()
	// Earliest ordinary candidate (heap event vs lane), resolved by the
	// shared seq counter at equal times.
	evWins := ev != nil && (lane == nil || ev.at < lane.at || (ev.at == lane.at && ev.seq < lane.seq))
	ordinaryAt := Forever
	if evWins {
		ordinaryAt = ev.at
	} else if lane != nil {
		ordinaryAt = lane.at
	}
	if len(s.wire) > 0 && s.wire[0].at <= ordinaryAt {
		at := s.wire[0].at
		if at > limit || (strict && at == limit) {
			return false
		}
		w := s.wire.pop()
		s.now = at
		s.fired++
		if w.runner != nil {
			w.runner.Run()
		} else {
			w.fn()
		}
		return true
	}
	switch {
	case ev == nil && lane == nil:
		return false
	case evWins:
		if ev.at > limit || (strict && ev.at == limit) {
			return false
		}
		s.heapPopHead()
		s.now = ev.at
		fn, runner := ev.fn, ev.runner
		s.release(ev)
		s.fired++
		if runner != nil {
			runner.Run()
		} else {
			fn()
		}
	default:
		if lane.at > limit || (strict && lane.at == limit) {
			return false
		}
		s.laneRemove(lane)
		s.now = lane.at
		s.fired++
		lane.fn()
	}
	return true
}

// NextSeq draws and consumes the next sequence number from the shared
// insertion counter without scheduling anything. It is the conveyor
// primitive: a component that manages its own future-work FIFO (the
// switch's pipeline conveyor) stamps each entry with the seq the
// equivalent After call would have drawn, so the entry keeps an exact
// position in the global event order without ever touching the heap.
func (s *Scheduler) NextSeq() uint64 {
	n := s.seq
	s.seq++
	return n
}

// NextAt returns the time of the earliest pending event and whether one
// exists.
func (s *Scheduler) NextAt() (Time, bool) {
	at := Forever
	ok := false
	if ev := s.peekHeap(); ev != nil {
		at, ok = ev.at, true
	}
	if lane := s.nextLane(); lane != nil && lane.at < at {
		at, ok = lane.at, true
	}
	if len(s.wire) > 0 && s.wire[0].at < at {
		at, ok = s.wire[0].at, true
	}
	return at, ok
}

// publishSelf pushes the delta of fired/arm counts accumulated since the
// last publish into the wall-clock self-metrics plane. Called at run
// exits only; a no-op when the plane is off. Checkpoint restore can move
// fired backwards — a shrunken counter resets the baseline rather than
// publishing a wrapped delta.
func (s *Scheduler) publishSelf() {
	if !self.On() {
		s.pubFired, s.pubLaneArms, s.pubAuxArms = s.fired, s.laneArms, s.auxArms
		return
	}
	if s.fired > s.pubFired {
		self.SchedDispatch.Add(s.fired - s.pubFired)
	}
	if s.laneArms > s.pubLaneArms {
		self.SchedLaneArms.Add(s.laneArms - s.pubLaneArms)
	}
	if s.auxArms > s.pubAuxArms {
		self.SchedAuxArms.Add(s.auxArms - s.pubAuxArms)
	}
	s.pubFired, s.pubLaneArms, s.pubAuxArms = s.fired, s.laneArms, s.auxArms
}

// Run executes events until the queue drains or the clock would pass
// until. The clock is left at the later of its current value and until
// (unless the queue drained earlier, in which case it rests at the last
// fired event). It returns the number of events executed.
func (s *Scheduler) Run(until Time) uint64 {
	start := s.fired
	s.halted = false
	s.runLimit, s.runStrict = until, false
	for !s.halted && s.stepBounded(until, false) {
	}
	s.runLimit, s.runStrict = Forever, false
	if s.now < until {
		s.now = until
	}
	s.publishSelf()
	return s.fired - start
}

// RunBefore executes events strictly before limit and returns the number
// executed. Unlike Run it leaves the clock at the last fired event (or
// untouched when nothing fired): it is the windowed-execution primitive
// for Partition, where a domain must not observe — or claim to have
// reached — any instant at or past the window edge, because a frame from
// another domain may still arrive exactly at limit.
func (s *Scheduler) RunBefore(limit Time) uint64 {
	start := s.fired
	s.halted = false
	s.runLimit, s.runStrict = limit, true
	for !s.halted && s.stepBounded(limit, true) {
	}
	s.runLimit, s.runStrict = Forever, false
	s.publishSelf()
	return s.fired - start
}

// RunBound returns the horizon of the run in progress: the limit time and
// whether it is strict (RunBefore — events at the limit must not fire) or
// inclusive (Run). Outside any run it returns (Forever, false).
func (s *Scheduler) RunBound() (limit Time, strict bool) {
	return s.runLimit, s.runStrict
}

// RunAll executes events until none remain. It returns the number of
// events executed. Use with care: self-rescheduling processes (tickers)
// never drain; prefer Run with a horizon.
func (s *Scheduler) RunAll() uint64 {
	start := s.fired
	s.halted = false
	for !s.halted && s.Step() {
	}
	s.publishSelf()
	return s.fired - start
}

// Halt stops Run/RunAll after the currently executing event returns.
// It is intended to be called from inside event callbacks.
func (s *Scheduler) Halt() { s.halted = true }
