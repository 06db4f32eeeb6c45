package main

import (
	"time"

	"repro/internal/events"
	"repro/internal/netsim"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sampleEvery is the tracer's sampling period: one call in sampleEvery
// into a program handler or Host.Send is timed, the rest only counted.
// Timing every call would cost more than many of the calls themselves.
const sampleEvery = 16

// callSampler accumulates one caller's sampled call timings. Each switch
// and each host owns its own, so partition domains never share a write.
type callSampler struct {
	calls, sampled uint64
	ns             int64
}

// timed runs fn, timing it when this call is the sampled one.
func (s *callSampler) timed(fn func()) {
	s.calls++
	if s.calls%sampleEvery != 0 {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	s.ns += int64(time.Since(t0))
	s.sampled++
}

// estimate scales the sampled time up to every call made.
func estimate(ss []*callSampler) (total time.Duration, calls, sampled uint64) {
	var ns int64
	for _, s := range ss {
		calls += s.calls
		sampled += s.sampled
		ns += s.ns
	}
	if sampled == 0 {
		return 0, calls, 0
	}
	return time.Duration(float64(ns) * float64(calls) / float64(sampled)), calls, sampled
}

// handlerSampler is one switch's program-handler accounting.
type handlerSampler struct {
	callSampler
	perKind [events.NumKinds]uint64
}

// timedControl wraps a program handler with its switch's sampler.
type timedControl struct {
	inner pisa.Control
	kind  events.Kind
	s     *handlerSampler
}

func (c *timedControl) Apply(ctx *pisa.Context) {
	c.s.perKind[c.kind]++
	c.s.timed(func() { c.inner.Apply(ctx) })
}

// tracer wraps the benchmark's calls into each layer for the traced run:
// program handlers (pisa/p4), generator sends (netsim Host.Send) and
// partition barriers (sim.Partition). It changes no simulated behaviour:
// wrappers call through unchanged and the barrier hook only reads the
// wall clock.
type tracer struct {
	handlers []*handlerSampler
	sends    []*callSampler

	lastBarrier time.Time
	windowsUS   []float64
	windowWall  time.Duration
}

// wrapProgram replaces every handler of p with a sampled wrapper. Call it
// before the program is loaded onto its switch.
func (t *tracer) wrapProgram(p *pisa.Program) {
	s := &handlerSampler{}
	t.handlers = append(t.handlers, s)
	for _, k := range p.HandledKinds() {
		p.Handle(k, &timedControl{inner: p.Handler(k), kind: k, s: s})
	}
}

// sendSink is the generator sink for h with Host.Send sampled.
func (t *tracer) sendSink(h *netsim.Host) workload.Sink {
	s := &callSampler{}
	t.sends = append(t.sends, s)
	return func(d []byte) { s.timed(func() { h.Send(d) }) }
}

// watchPartition timestamps every barrier of p. The interval between two
// barriers is one window round: mailbox exchange, edge computation and
// the domains' parallel execution.
func (t *tracer) watchPartition(p *sim.Partition) {
	p.OnBarrier(func() {
		now := time.Now()
		if !t.lastBarrier.IsZero() {
			d := now.Sub(t.lastBarrier)
			t.windowWall += d
			t.windowsUS = append(t.windowsUS, float64(d)/float64(time.Microsecond))
		}
		t.lastBarrier = now
	})
}

func (t *tracer) handlerSamplers() []*callSampler {
	out := make([]*callSampler, len(t.handlers))
	for i, h := range t.handlers {
		out[i] = &h.callSampler
	}
	return out
}

// sliceProbe records the wall clock at equal steps of simulated time
// during an untraced run, for slice_ms_p90. On a serial network it is a
// self-rescheduling no-op event; on a partition it is a barrier hook
// reading each domain's next pending instant, so it adds no event a
// window edge could see and leaves the barrier count unchanged.
type sliceProbe struct {
	step  sim.Time
	marks []time.Time
	next  int // index of the next boundary to mark
}

func attachProbe(in *instance, slices int) *sliceProbe {
	p := &sliceProbe{step: in.horizon / sim.Time(slices), marks: make([]time.Time, slices+1), next: 1}
	if in.part == nil {
		sched := in.net.Scheduler()
		var fire func()
		fire = func() {
			p.marks[p.next] = time.Now()
			p.next++
			if p.next < len(p.marks) {
				sched.At(sim.Time(p.next)*p.step, fire)
			}
		}
		sched.At(p.step, fire)
		return p
	}
	part := in.part
	part.OnBarrier(func() {
		progress := sim.Forever
		for d := 0; d < part.Domains(); d++ {
			if at, ok := part.Sched(d).NextAt(); ok && at < progress {
				progress = at
			}
		}
		if p.next < len(p.marks) && progress >= sim.Time(p.next)*p.step {
			now := time.Now()
			for p.next < len(p.marks) && progress >= sim.Time(p.next)*p.step {
				p.marks[p.next] = now
				p.next++
			}
		}
	})
	return p
}

// start marks the beginning of the run.
func (p *sliceProbe) start() { p.marks[0] = time.Now() }

// finish closes any boundary not yet marked and returns each slice's
// host time in milliseconds.
func (p *sliceProbe) finish() []float64 {
	now := time.Now()
	for ; p.next < len(p.marks); p.next++ {
		p.marks[p.next] = now
	}
	out := make([]float64, len(p.marks)-1)
	for i := range out {
		out[i] = float64(p.marks[i+1].Sub(p.marks[i])) / float64(time.Millisecond)
	}
	return out
}
