package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one node of the traced run's span tree. Spans are recorded by
// the benchmark around its calls into each layer and kept in memory
// until the run ends.
//
// Wall is the time the span occupies on its parent's timeline. Threads
// is how many lanes run inside it at once: 1 for sequential code, the
// domain count for a partition window, whose domains execute in
// parallel. A span's capacity is Wall*Threads thread-seconds, and its
// self time is the capacity its children's Wall does not cover, so for
// every span self + sum(child.Wall) == Wall*Threads exactly.
//
// Sampled spans (handler calls, host sends) aggregate many short calls:
// Wall is the estimated total, Calls the calls made and Sampled the
// calls actually timed.
type span struct {
	Name     string
	Start    time.Duration // offset from the tracer's origin; 0 for aggregates
	Wall     time.Duration
	Threads  int
	Calls    uint64
	Sampled  uint64
	Children []*span
}

func (s *span) threads() int {
	if s.Threads < 1 {
		return 1
	}
	return s.Threads
}

// capacity is the thread-time available inside the span.
func (s *span) capacity() time.Duration { return s.Wall * time.Duration(s.threads()) }

// self is the span's capacity minus its children's wall time.
func (s *span) self() time.Duration {
	c := s.capacity()
	for _, ch := range s.Children {
		c -= ch.Wall
	}
	return c
}

// add appends a child and returns it.
func (s *span) add(ch *span) *span {
	s.Children = append(s.Children, ch)
	return ch
}

// find returns the first descendant (or s itself) named name, or nil.
func (s *span) find(name string) *span {
	if s.Name == name {
		return s
	}
	for _, ch := range s.Children {
		if f := ch.find(name); f != nil {
			return f
		}
	}
	return nil
}

// selfTotal sums self time over s and all its descendants: the subtree's
// thread-time, each instant counted in exactly one span.
func (s *span) selfTotal() time.Duration {
	t := s.self()
	for _, ch := range s.Children {
		t += ch.selfTotal()
	}
	return t
}

// walk visits s and its descendants depth-first with their depth.
func (s *span) walk(depth int, fn func(*span, int)) {
	fn(s, depth)
	for _, ch := range s.Children {
		ch.walk(depth+1, fn)
	}
}

// reconcileError returns a non-nil error when some span's children
// cover more than its capacity (negative self time beyond tol): the
// sign of double-counted or mis-nested spans.
func (s *span) reconcileError(tol time.Duration) error {
	var err error
	s.walk(0, func(sp *span, _ int) {
		if err == nil && sp.self() < -tol {
			err = fmt.Errorf("span %s: children cover %v of a %v capacity", sp.Name,
				sp.capacity()-sp.self(), sp.capacity())
		}
	})
	return err
}

// writeTable prints the per-layer breakdown of the run span: each span's
// wall, self time and self share of the run's thread-time, plus the
// counts attached to it.
func writeTable(w io.Writer, run *span, counts map[string]string) {
	total := run.selfTotal()
	fmt.Fprintf(w, "%-22s %10s %7s %10s %7s  %s\n", "span", "wall_s", "threads", "self_s", "share", "counts")
	run.walk(0, func(sp *span, depth int) {
		share := 0.0
		if total > 0 {
			share = 100 * sp.self().Seconds() / total.Seconds()
		}
		name := strings.Repeat("  ", depth) + sp.Name
		extra := counts[sp.Name]
		if sp.Calls > 0 {
			extra = strings.TrimSpace(fmt.Sprintf("calls=%d sampled=%d %s", sp.Calls, sp.Sampled, extra))
		}
		fmt.Fprintf(w, "%-22s %10.4f %7d %10.4f %6.1f%%  %s\n",
			name, sp.Wall.Seconds(), sp.threads(), sp.self().Seconds(), share, extra)
	})
	fmt.Fprintf(w, "%-22s %10.4f (thread-seconds; run wall %.4f s = run self + child walls)\n",
		"total self", total.Seconds(), run.Wall.Seconds())
}
