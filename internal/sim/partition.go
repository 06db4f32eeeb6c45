package sim

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/telemetry/self"
)

// Partition is a conservative (Chandy–Misra style) parallel driver for a
// set of Schedulers. Each member scheduler is a domain: a group of
// simulated components that interact with the other domains only through
// messages carrying at least Lookahead of virtual latency. Run advances
// every domain in bounded windows — the calling goroutine executes
// domain 0 and one worker goroutine each other domain, all concurrently
// up to their window edges, then all domains synchronize at a barrier
// where cross-domain messages are exchanged (the OnBarrier hooks;
// netsim drains its link mailboxes there).
//
// Window edges are adaptive (DESIGN.md §16). A domain's edge is the
// earliest instant any pending work anywhere could deliver an effect to
// it: min over domains o of next(o) + dist(o→d), where next(o) is o's
// earliest pending event at the barrier and dist is the all-pairs
// shortest path over minimum cross-domain latencies (the per-pair matrix
// installed with SetCrossLatency, or the global Lookahead for every pair
// when no matrix is installed). The closure is what makes the bound
// sound: an effect may chain through intermediate domains — o wakes q,
// q's reply reaches d — and each crossing costs at least the pair's
// matrix entry, while intra-domain processing is conservatively free.
// The o = d term uses the shortest cycle through d: a domain's own sends
// can come back to it as replies, so a busy domain surrounded by idle
// ones may run ahead exactly one round trip, not to the horizon. When
// the other domains are idle or far away, one window batches what the
// fixed-width protocol would have split across many barrier rounds;
// when they are close, the edge degenerates to the classic
// min(next)+Lookahead, never below it (every path crosses at least one
// link, so dist ≥ Lookahead everywhere). Combined with the scheduler
// wire band (arrivals ordered by engine-independent keys, before
// same-time local events), a partitioned run executes exactly the event
// sequence the single-scheduler run would — byte-identical output at
// any domain count.
type Partition struct {
	scheds    []*Scheduler
	lookahead Time
	// cross[o][d] is the minimum latency of a direct o→d cross-domain
	// interaction; Forever = the pair cannot interact directly. nil means
	// no matrix was installed and every pair is assumed reachable at
	// lookahead (the conservative default for callers that exchange
	// messages through their own OnBarrier hooks).
	cross [][]Time
	// dist is the shortest-path closure of cross (recomputed when the
	// matrix changes); cyc[d] is the shortest cycle through d — the
	// minimum round trip a domain's own sends need to come back to it.
	dist      [][]Time
	cyc       []Time
	distDirty bool
	// classic forces fixed-width conservative windows (min(next)+lookahead
	// for every domain) instead of adaptive per-domain edges. The batched
	// and classic protocols execute the identical event sequence — classic
	// mode exists as the differential oracle for that claim and as the
	// baseline for barrier-reduction measurements.
	classic  bool
	barriers []func()
	// barrierCount counts synchronization points across Run calls
	// (coordinator-only writes; read between Runs).
	barrierCount uint64
	// windows counts coordinator window rounds. Atomic so mid-run
	// observers (an evsim checkpoint event firing inside a window) can
	// read it while the coordinator loops.
	windows atomic.Uint64

	next  []Time // scratch: per-domain earliest pending event at a barrier
	edges []Time // scratch: per-domain window edge
}

// NewPartition builds a partition of n fresh schedulers (n >= 1).
func NewPartition(n int) *Partition {
	if n < 1 {
		panic("sim: partition needs at least one domain")
	}
	p := &Partition{scheds: make([]*Scheduler, n)}
	for i := range p.scheds {
		p.scheds[i] = NewScheduler()
	}
	return p
}

// Domains returns the number of domains.
func (p *Partition) Domains() int { return len(p.scheds) }

// Sched returns domain i's scheduler.
func (p *Partition) Sched(i int) *Scheduler { return p.scheds[i] }

// Index returns the domain owning s, or -1.
func (p *Partition) Index(s *Scheduler) int {
	for i, d := range p.scheds {
		if d == s {
			return i
		}
	}
	return -1
}

// SetLookahead sets the conservative window width: the minimum virtual
// latency of any cross-domain interaction. With more than one domain it
// must be positive before Run (netsim computes it as the minimum
// cross-domain link latency). It bounds every domain pair when no
// per-pair matrix is installed, and remains the floor of every edge when
// one is.
func (p *Partition) SetLookahead(d Time) { p.lookahead = d }

// Lookahead returns the configured window width.
func (p *Partition) Lookahead() Time { return p.lookahead }

// SetCrossLatency records the minimum virtual latency of a direct
// src→dst cross-domain interaction, tightening (never loosening) any
// previously recorded value. Installing the matrix upgrades the window
// protocol from one global conservative width to per-domain adaptive
// edges: a domain is bounded only by the domains that can actually send
// to it, at their actual minimum latencies, and pairs never recorded
// cannot interact at all. netsim installs the matrix from its
// cross-domain link latencies; SetLookahead is still required.
func (p *Partition) SetCrossLatency(src, dst int, lat Time) {
	if lat <= 0 {
		panic("sim: cross-domain latency must be positive")
	}
	if src == dst {
		return
	}
	if p.cross == nil {
		p.cross = make([][]Time, len(p.scheds))
		for i := range p.cross {
			row := make([]Time, len(p.scheds))
			for j := range row {
				row[j] = Forever
			}
			p.cross[i] = row
		}
	}
	if lat < p.cross[src][dst] {
		p.cross[src][dst] = lat
		p.distDirty = true
	}
}

// closure (re)computes the all-pairs shortest-path matrix over the
// recorded cross latencies (Floyd–Warshall; domain counts are small) and
// each domain's shortest cycle. Runs at Run start when the matrix
// changed, never mid-window.
func (p *Partition) closure() {
	n := len(p.scheds)
	if p.dist == nil {
		p.dist = make([][]Time, n)
		for i := range p.dist {
			p.dist[i] = make([]Time, n)
		}
		p.cyc = make([]Time, n)
	}
	for i := range p.dist {
		copy(p.dist[i], p.cross[i])
		p.dist[i][i] = Forever // self-distance tracked separately as cyc
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if p.dist[i][k] == Forever {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if d := satAdd(p.dist[i][k], p.dist[k][j]); d < p.dist[i][j] {
					p.dist[i][j] = d
				}
			}
		}
	}
	for d := 0; d < n; d++ {
		c := Forever
		for o := 0; o < n; o++ {
			if o == d {
				continue
			}
			if r := satAdd(p.dist[d][o], p.dist[o][d]); r < c {
				c = r
			}
		}
		p.cyc[d] = c
	}
	p.distDirty = false
}

// OnBarrier registers fn to run single-threaded at every synchronization
// point (before the first window, between windows, and after the last),
// while no domain goroutine is executing. Exchange hooks deliver
// cross-domain messages here by scheduling them on the destination
// domain, typically via AtWire.
func (p *Partition) OnBarrier(fn func()) { p.barriers = append(p.barriers, fn) }

func (p *Partition) barrier() {
	p.barrierCount++
	for _, fn := range p.barriers {
		fn()
	}
	if self.On() {
		self.PartBarriers.Inc()
	}
}

// SetClassicWindows(true) disables adaptive window batching: every
// window uses the fixed conservative width min(next)+Lookahead, the
// protocol the adaptive edges strictly improve on. Both modes execute
// the identical event sequence; classic mode is the differential oracle
// for that claim and the baseline for barrier-reduction measurements.
func (p *Partition) SetClassicWindows(on bool) { p.classic = on }

// Barriers returns the number of synchronization points executed across
// all Run calls: the direct measure of the cross-domain coordination the
// adaptive protocol removes. Like Windows it depends on the domain
// count, lookahead, and batching mode, so it belongs in run metadata,
// never in exports compared across domain counts.
func (p *Partition) Barriers() uint64 { return p.barrierCount }

// scanNext records every domain's earliest pending instant (Forever when
// idle) and returns the minimum. Runs at a barrier, after the exchange
// hooks, so mailboxed frames already delivered onto a domain's wire band
// are part of its next.
func (p *Partition) scanNext() Time {
	s := Forever
	for i, d := range p.scheds {
		at, ok := d.NextAt()
		if !ok {
			at = Forever
		}
		p.next[i] = at
		if at < s {
			s = at
		}
	}
	return s
}

// satAdd adds a non-negative delta to a time, saturating at Forever.
func satAdd(a, b Time) Time {
	if c := a + b; c >= a {
		return c
	}
	return Forever
}

// computeEdges fills p.edges with each domain's window edge, clamped to
// until: the earliest instant any pending work anywhere could deliver a
// cross-domain effect to it, via any chain of crossings (the dist
// closure; the global lookahead single-hop / double-hop bound when no
// matrix is installed). A domain bounds itself only through the shortest
// cycle back to it — its own events are sequential on its own
// goroutine, but their replies are not.
func (p *Partition) computeEdges(until Time) {
	n := len(p.scheds)
	for d := 0; d < n; d++ {
		edge := Forever
		for o := 0; o < n; o++ {
			if p.next[o] == Forever {
				continue
			}
			var lat Time
			switch {
			case o == d && p.dist != nil:
				lat = p.cyc[d]
			case o == d:
				lat = satAdd(p.lookahead, p.lookahead)
			case p.dist != nil:
				lat = p.dist[o][d]
			default:
				lat = p.lookahead
			}
			if lat == Forever {
				continue
			}
			if a := satAdd(p.next[o], lat); a < edge {
				edge = a
			}
		}
		if edge > until {
			edge = until
		}
		p.edges[d] = edge
	}
}

// liveDomains counts the domain goroutines of every Partition.Run in
// progress in the process: n per Run of n domains, the calling goroutine
// (which executes domain 0) included. Concurrent partitions — bench runs
// trials in parallel — share it, so a waiter can tell whether every
// domain goroutine can hold a P at once, the only case in which
// spinning can pay.
var liveDomains atomic.Int64

// spinFor bounds a waiter's busy-wait before it parks. It covers a
// typical window several times over, so back-to-back window rounds cost
// a fence rather than a futex wake; the bound keeps a domain whose
// window is the whole run (an idle domain waiting for the horizon) from
// burning a core for all of it. Picked by a sweep (EXPERIMENTS.md,
// "Partition: coordinator-run domain and live-domain spin policy").
const spinFor = 200 * time.Microsecond

// gateWorker is one worker domain's slot in the epoch gate. The
// coordinator writes edge/incl/stop before bumping the gate epoch (the
// atomic bump publishes them); parked and wake implement the park/wake
// protocol in epochGate.
type gateWorker struct {
	edge   Time
	incl   bool
	stop   bool
	parked atomic.Bool
	wake   chan struct{}
}

// epochGate synchronizes the coordinator with the persistent workers of
// domains 1..n-1 without a per-window channel broadcast: releasing a
// window is one atomic add (plus a wake for any worker that parked).
// A goroutine that finishes its window first spins (see spin) and then
// parks, so back-to-back windows on free cores cost a fence, not a
// scheduler round-trip.
//
// Protocol: the coordinator writes every worker's command, stores the
// outstanding count in done, bumps epoch, then wakes parked workers, and
// runs domain 0's window itself. Workers wait for epoch to reach their
// round number, run their window, and decrement done; the last one wakes
// the coordinator if it parked. Both waits use the eventcount discipline
// — publish the parked flag, re-check the condition, only then block —
// so a wake can never be lost; tokens are buffered and sends
// non-blocking, so a stale token at worst causes one spurious wake,
// which the re-check loop absorbs.
type epochGate struct {
	epoch   atomic.Uint64
	done    atomic.Int64
	parked  atomic.Bool // coordinator parked
	wake    chan struct{}
	workers []*gateWorker
	procs   int64 // GOMAXPROCS, read once per Run
}

func newEpochGate(workers int) *epochGate {
	g := &epochGate{
		wake:    make(chan struct{}, 1),
		workers: make([]*gateWorker, workers),
		procs:   int64(runtime.GOMAXPROCS(0)),
	}
	for i := range g.workers {
		g.workers[i] = &gateWorker{wake: make(chan struct{}, 1)}
	}
	return g
}

// spin busy-waits until ready holds, for at most spinFor and only while
// every live domain goroutine can hold a P (liveDomains <= GOMAXPROCS);
// it reports whether ready held. When domains outnumber Ps a spinner
// burns the core a peer needs, so the caller parks at once.
func (g *epochGate) spin(ready func() bool) bool {
	if liveDomains.Load() > g.procs {
		return false
	}
	start := time.Now()
	for i := 1; ; i++ {
		if ready() {
			return true
		}
		if i%64 == 0 && (time.Since(start) > spinFor || liveDomains.Load() > g.procs) {
			return false
		}
	}
}

// release publishes the commands already written into the workers and
// opens the next window round.
func (g *epochGate) release() {
	g.done.Store(int64(len(g.workers)))
	g.epoch.Add(1)
	for _, w := range g.workers {
		if w.parked.Load() {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
}

// awaitEpoch blocks worker w until the gate epoch reaches target.
func (g *epochGate) awaitEpoch(w *gateWorker, target uint64) {
	if g.spin(func() bool { return g.epoch.Load() >= target }) {
		return
	}
	for {
		if g.epoch.Load() >= target {
			return
		}
		w.parked.Store(true)
		if g.epoch.Load() >= target {
			w.parked.Store(false)
			select { // drop the token a racing release may have sent
			case <-w.wake:
			default:
			}
			return
		}
		<-w.wake
		w.parked.Store(false)
	}
}

// awaitDone blocks the coordinator until every worker finished its
// window.
func (g *epochGate) awaitDone() {
	if g.spin(func() bool { return g.done.Load() == 0 }) {
		return
	}
	for {
		if g.done.Load() == 0 {
			return
		}
		g.parked.Store(true)
		if g.done.Load() == 0 {
			g.parked.Store(false)
			select {
			case <-g.wake:
			default:
			}
			return
		}
		<-g.wake
		g.parked.Store(false)
	}
}

// finish is a worker's window-complete notification.
func (g *epochGate) finish() {
	if g.done.Add(-1) == 0 && g.parked.Load() {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// shutdown first waits out any window still in flight (there is one only
// when a domain-0 event panicked), then releases the workers one last
// time with stop set and waits until each has acknowledged, so no worker
// touches the partition after Run ends.
func (g *epochGate) shutdown() {
	g.awaitDone()
	for _, w := range g.workers {
		w.stop = true
	}
	g.release()
	g.awaitDone()
}

// domainClock is one domain's barrier-stall accounting: the time between
// finishing a window and starting the next is the domain's stall — the
// load-imbalance number the -domains scaling work needs. Wall-clock
// only; never observed by simulation code.
type domainClock struct {
	domain    int
	idleSince time.Time
}

// window executes one window of domain c.domain on s, up to edge
// (inclusive for the final pass), and returns the events it fired.
func (c *domainClock) window(s *Scheduler, edge Time, incl bool) uint64 {
	if self.On() && !c.idleSince.IsZero() {
		self.DomainStallNS(c.domain).Add(uint64(time.Since(c.idleSince).Nanoseconds()))
	}
	var n uint64
	if incl {
		n = s.Run(edge)
	} else {
		n = s.RunBefore(edge)
	}
	if self.On() {
		self.DomainWindows(c.domain).Inc()
		c.idleSince = time.Now()
	} else {
		c.idleSince = time.Time{}
	}
	return n
}

// startWorkers spawns one persistent goroutine for each of domains
// 1..n-1 for the duration of a Run call; the coordinator executes domain
// 0 itself, so n domains occupy n goroutines. The workers live across
// every window of the run, waiting on the epoch gate between windows,
// and exit on shutdown.
func (p *Partition) startWorkers(g *epochGate, fired *atomic.Uint64) {
	for i, w := range g.workers {
		go func(c domainClock, s *Scheduler, w *gateWorker) {
			for round := uint64(1); ; round++ {
				g.awaitEpoch(w, round)
				if w.stop {
					g.finish()
					return
				}
				fired.Add(c.window(s, w.edge, w.incl))
				g.finish()
			}
		}(domainClock{domain: i + 1}, p.scheds[i+1], w)
	}
}

// Run advances all domains to until, leaving every domain clock at until
// (mirroring Scheduler.Run). It returns the number of events executed
// across all domains.
//
// Window protocol: at each round the barrier hooks run (delivering any
// cross-domain messages produced by the previous window — a message's
// arrival never precedes its receiver's edge, so delivery is always in
// the receiver's future), then every domain's earliest pending instant
// is scanned and per-domain edges are computed (computeEdges). The loop
// ends when no domain holds an event before until; a final inclusive
// pass executes events at exactly until (their cross-domain effects land
// at or after until plus the pair latency and stay mailboxed for a later
// Run, exactly as the single-scheduler run would leave them pending).
//
// The calling goroutine executes domain 0's windows and the barriers. A
// panic there (in a barrier hook or a domain-0 event) propagates to the
// caller only after every other domain finished its current window and
// every worker stopped.
func (p *Partition) Run(until Time) uint64 {
	n := len(p.scheds)
	if n == 1 {
		liveDomains.Add(1)
		defer liveDomains.Add(-1)
		p.barrier()
		p.windows.Add(1)
		fired := p.scheds[0].Run(until)
		p.barrier()
		if self.On() {
			self.SetDomains(1)
			self.DomainWindows(0).Inc()
			self.SimNowPS.Set(int64(until))
		}
		return fired
	}
	if p.lookahead <= 0 {
		panic("sim: partition with multiple domains needs a positive lookahead")
	}
	if self.On() {
		self.SetDomains(n)
	}
	if len(p.next) != n {
		p.next = make([]Time, n)
		p.edges = make([]Time, n)
	}
	if p.distDirty {
		p.closure()
	}
	var fired atomic.Uint64
	g := newEpochGate(n - 1)
	liveDomains.Add(int64(n))
	p.startWorkers(g, &fired)
	defer func() {
		g.shutdown()
		liveDomains.Add(-int64(n))
	}()
	d0 := domainClock{domain: 0}
	for {
		p.barrier()
		s := p.scanNext()
		if s >= until {
			break
		}
		p.windows.Add(1)
		classic := until
		if p.lookahead < until-s {
			classic = s + p.lookahead
		}
		if p.classic {
			for i := range p.edges {
				p.edges[i] = classic
			}
		} else {
			p.computeEdges(until)
		}
		minEdge, batched := Forever, false
		for _, e := range p.edges {
			if e < minEdge {
				minEdge = e
			}
			if e > classic {
				batched = true
			}
		}
		for i, w := range g.workers {
			w.edge, w.incl = p.edges[i+1], false
		}
		g.release()
		fired.Add(d0.window(p.scheds[0], p.edges[0], false))
		g.awaitDone()
		if self.On() {
			self.SimNowPS.Set(int64(minEdge))
			if batched {
				self.PartBatchedWindows.Inc()
			}
		}
	}
	p.windows.Add(1)
	for _, w := range g.workers {
		w.edge, w.incl = until, true
	}
	g.release()
	fired.Add(d0.window(p.scheds[0], until, true))
	g.awaitDone()
	p.barrier()
	if self.On() {
		self.SimNowPS.Set(int64(until))
	}
	return fired.Load()
}

// Windows returns the number of window rounds executed across all Run
// calls (1 per Run in the single-domain fast path). With per-domain
// Fired() counts it describes the parallel run's shape for telemetry;
// window counts depend on the domain count, lookahead, and batching, so
// they belong in run metadata, not in exports compared across domain
// counts.
func (p *Partition) Windows() uint64 { return p.windows.Load() }
