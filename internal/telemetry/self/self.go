// Package self is the engine's own observability: wall-clock-domain
// self-metrics measuring how the simulator runs, never what it simulates.
// It is the second metric domain next to the deterministic sim-time
// registry in internal/telemetry, and the two never mix: deterministic
// metrics are single-writer, driven by simulated time, and part of the
// exported identity of a run; self-metrics are atomic, driven by the wall
// clock and the host scheduler, and explicitly excluded from every
// deterministic export and digest. Enabling or disabling them must not
// change a single byte of simulation output (DESIGN.md §15).
//
// The package is a leaf (stdlib only) so every layer of the engine —
// internal/sim, internal/core, internal/packet, internal/checkpoint,
// internal/netsim — can record into it without import cycles. All
// instruments are fixed package-level variables updated with atomic
// operations; the hot path allocates nothing (TestSelfHotPathZeroAlloc)
// and is gated behind one atomic load (On), so a run without the
// observability plane pays a predictable branch and nothing else.
//
// Writers follow two disciplines to keep the overhead honest:
//
//   - Per-event costs are batched: the scheduler counts dispatches and
//     lane arms in plain local fields and publishes deltas at run exit
//     (Scheduler.Run/RunBefore return), not per event.
//   - Per-occurrence costs stay on naturally coarse paths: a stall
//     sample per partition window, a latency sample per checkpoint write.
package self

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
)

// on gates every hot-path record. Off by default; the observability plane
// (evbench/evsim -http, streaming export) switches it on at startup.
var on atomic.Bool

// Enable turns self-metric recording on.
func Enable() { on.Store(true) }

// Disable turns self-metric recording off. Instruments keep their values.
func Disable() { on.Store(false) }

// On reports whether self-metrics are being recorded. Hot paths check it
// before touching any instrument.
func On() bool { return on.Load() }

// Counter is a monotonically increasing atomic counter. Safe for any
// number of concurrent writers and readers.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic point-in-time value.
type Gauge struct{ v atomic.Int64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the last value set.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HighWater tracks a current level and its maximum. Add moves the level;
// the high-water mark ratchets up under a CAS loop, so concurrent writers
// never lose a peak.
type HighWater struct {
	cur atomic.Int64
	hi  atomic.Int64
}

// Add moves the current level by d (negative to release) and updates the
// high-water mark.
func (w *HighWater) Add(d int64) {
	cur := w.cur.Add(d)
	for {
		hi := w.hi.Load()
		if cur <= hi || w.hi.CompareAndSwap(hi, cur) {
			return
		}
	}
}

// Cur returns the current level.
func (w *HighWater) Cur() int64 { return w.cur.Load() }

// High returns the high-water mark.
func (w *HighWater) High() int64 { return w.hi.Load() }

// HistBuckets mirrors the deterministic registry's log2 bucket layout:
// bucket 0 holds the value 0 and bucket i holds values with
// bits.Len64(v) == i.
const HistBuckets = 65

// Hist is an atomic fixed-boundary log2 histogram. Observe performs four
// atomic adds plus a CAS loop for the max — no allocation, no lock.
type Hist struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// Observe records one sample.
func (h *Hist) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Hist) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Hist) Sum() uint64 { return h.sum.Load() }

// Max returns the largest sample observed.
func (h *Hist) Max() uint64 { return h.max.Load() }

// Bucket returns the count in bucket i.
func (h *Hist) Bucket(i int) uint64 { return h.buckets[i].Load() }

// BucketLow returns the smallest value falling in bucket i.
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHigh returns the largest value falling in bucket i.
func BucketHigh(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<i - 1
}

// MaxDomains bounds the per-domain instrument arrays. Domains beyond it
// fold into a shared overflow slot rather than being dropped.
const MaxDomains = 64

// The engine's self-metric set. Fixed at compile time: every instrument
// is a package-level variable so hot paths hold no pointers and pay no
// lookups.
var (
	// SchedDispatch counts events executed across all schedulers
	// (published as batched deltas at Run/RunBefore/RunAll exit).
	SchedDispatch Counter
	// SchedLaneArms counts cycle-lane arms (Lane.ArmAt) and SchedAuxArms
	// counts exact-coordinate arms (Lane.ArmExact — the switch conveyor's
	// aux lane), both published at run exit with SchedDispatch.
	SchedLaneArms Counter
	SchedAuxArms  Counter

	// BurstOcc was the burst datapath's slots-per-dispatch histogram.
	// Every cycle-lane dispatch now runs exactly one slot, so nothing
	// observes it and it is not exported; it stays declared only because
	// the repository benchmark (perfbench/traced.go) still reads it.
	BurstOcc Hist

	// PoolInUse tracks outstanding packets across every packet.Pool:
	// current level and process-wide high-water mark.
	PoolInUse HighWater

	// CheckpointWriteNS is the wall-clock latency of checkpoint file
	// writes; CheckpointBytes the bytes written; CheckpointLastUnixNS the
	// wall instant of the most recent successful write.
	CheckpointWriteNS    Hist
	CheckpointBytes      Counter
	CheckpointLastUnixNS Gauge

	// MailFrames counts cross-domain frames handed over at partition
	// barriers.
	MailFrames Counter

	// PartBarriers counts partition synchronization barriers (one per
	// coordinator round); PartBatchedWindows counts the windows whose
	// span exceeded one conservative lookahead — the adaptive batching
	// actually engaging. Together with the per-domain window counters
	// they measure barrier pressure: barriers / simulated time is the
	// number the batching work exists to push down.
	PartBarriers       Counter
	PartBatchedWindows Counter

	// TrialsTotal/TrialsDone track experiment campaign progress
	// (bench.RunParallel).
	TrialsTotal Counter
	TrialsDone  Counter

	// StreamFlushes/StreamRecords/StreamLost describe the incremental
	// telemetry exporter: flush passes, trace records flushed, and
	// records lost to ring wrap between flushes.
	StreamFlushes Counter
	StreamRecords Counter
	StreamLost    Counter

	// Scrapes counts /metrics HTTP scrapes served.
	Scrapes Counter

	// SimNowPS is the most recently published simulated instant
	// (picoseconds): updated at partition windows, run exits, and
	// checkpoint writes — a progress indicator, not a live clock.
	SimNowPS Gauge

	// domains is the domain count of the most recent partitioned run.
	domains Gauge

	domainWindows [MaxDomains + 1]Counter // [MaxDomains] = overflow slot
	domainStallNS [MaxDomains + 1]Counter
)

// SetDomains records the domain count of the run in progress.
func SetDomains(n int) { domains.Set(int64(n)) }

// Domains returns the recorded domain count.
func Domains() int { return int(domains.Value()) }

// domainSlot clamps a domain index into the instrument arrays.
func domainSlot(d int) int {
	if d < 0 || d >= MaxDomains {
		return MaxDomains
	}
	return d
}

// DomainWindows returns domain d's conservative-window counter.
func DomainWindows(d int) *Counter { return &domainWindows[domainSlot(d)] }

// DomainStallNS returns domain d's barrier-stall counter: wall-clock
// nanoseconds the domain's worker spent finished-and-waiting between one
// window and the next.
func DomainStallNS(d int) *Counter { return &domainStallNS[domainSlot(d)] }

// Reset zeroes every instrument (tests and fresh campaigns). It does not
// change the enabled state.
func Reset() {
	for _, c := range []*Counter{
		&SchedDispatch, &SchedLaneArms, &SchedAuxArms,
		&CheckpointBytes, &MailFrames,
		&PartBarriers, &PartBatchedWindows,
		&TrialsTotal, &TrialsDone,
		&StreamFlushes, &StreamRecords, &StreamLost, &Scrapes,
	} {
		c.v.Store(0)
	}
	h := &CheckpointWriteNS
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	PoolInUse.cur.Store(0)
	PoolInUse.hi.Store(0)
	CheckpointLastUnixNS.Set(0)
	SimNowPS.Set(0)
	domains.Set(0)
	for i := range domainWindows {
		domainWindows[i].v.Store(0)
		domainStallNS[i].v.Store(0)
	}
}

// Sample is one instrument's state in a Snapshot.
type Sample struct {
	Name string
	Kind string // "counter" | "gauge" | "hist"
	// Value carries the counter total or gauge value.
	Value int64
	// Histogram fields.
	Count, Sum, Max uint64
	Buckets         []HistBucket // non-empty buckets, ascending
}

// HistBucket is one non-empty histogram bucket: High is the bucket's
// inclusive upper bound, Count the raw (non-cumulative) count.
type HistBucket struct {
	Low, High, Count uint64
}

// Snapshot returns every instrument's state in a fixed, deterministic
// order. Per-domain instruments appear for domains < SetDomains' last
// value plus any slot with a non-zero count, so idle slots stay out of
// scrapes. Reads are atomic; values observed mid-update are each
// individually consistent but the set is not a single atomic cut — this
// is observability, not accounting.
func Snapshot() []Sample {
	counter := func(name string, c *Counter) Sample {
		return Sample{Name: name, Kind: "counter", Value: int64(c.Value())}
	}
	gauge := func(name string, g *Gauge) Sample {
		return Sample{Name: name, Kind: "gauge", Value: g.Value()}
	}
	hist := func(name string, h *Hist) Sample {
		s := Sample{Name: name, Kind: "hist", Max: h.Max()}
		var total, sum uint64
		for i := 0; i < HistBuckets; i++ {
			if n := h.Bucket(i); n != 0 {
				s.Buckets = append(s.Buckets, HistBucket{Low: BucketLow(i), High: BucketHigh(i), Count: n})
				total += n
			}
		}
		// Count is derived from the buckets read, so every snapshot keeps
		// the bucket-sum == count invariant even while writers race ahead.
		sum = h.Sum()
		s.Count, s.Sum = total, sum
		return s
	}
	out := []Sample{
		counter("self.checkpoint.bytes", &CheckpointBytes),
		gauge("self.checkpoint.last_unix_ns", &CheckpointLastUnixNS),
		hist("self.checkpoint.write_ns", &CheckpointWriteNS),
		gauge("self.domains", &domains),
		counter("self.http.scrapes", &Scrapes),
		counter("self.mail.frames", &MailFrames),
		counter("self.part.barriers", &PartBarriers),
		counter("self.part.batched_windows", &PartBatchedWindows),
		{Name: "self.pool.high_water", Kind: "gauge", Value: PoolInUse.High()},
		{Name: "self.pool.in_use", Kind: "gauge", Value: PoolInUse.Cur()},
		counter("self.sched.aux_arms", &SchedAuxArms),
		counter("self.sched.dispatch", &SchedDispatch),
		counter("self.sched.lane_arms", &SchedLaneArms),
		gauge("self.sim.now_ps", &SimNowPS),
		counter("self.stream.flushes", &StreamFlushes),
		counter("self.stream.lost", &StreamLost),
		counter("self.stream.records", &StreamRecords),
		counter("self.trials.done", &TrialsDone),
		counter("self.trials.total", &TrialsTotal),
	}
	nd := int(domains.Value())
	if nd > MaxDomains {
		nd = MaxDomains + 1
	}
	for d := 0; d <= MaxDomains; d++ {
		w, st := domainWindows[d].Value(), domainStallNS[d].Value()
		if d >= nd && w == 0 && st == 0 {
			continue
		}
		name := fmt.Sprintf("self.domain%d", d)
		if d == MaxDomains {
			name = "self.domain_overflow"
		}
		out = append(out,
			Sample{Name: name + ".barrier_stall_ns", Kind: "counter", Value: int64(st)},
			Sample{Name: name + ".windows", Kind: "counter", Value: int64(w)},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
