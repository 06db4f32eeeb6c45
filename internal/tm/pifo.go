// Package tm models the traffic manager of a programmable switch: per-port
// output queues with configurable capacity and scheduling discipline, a
// PIFO (Push-In-First-Out) queue for programmable scheduling, and — the
// part the paper cares about — event taps that announce buffer enqueue,
// dequeue, overflow, and underflow to the event-driven architecture.
package tm

// pifoEntry is one element of a PIFO: an opaque item with a rank. Lower
// ranks dequeue first; equal ranks dequeue in arrival order.
type pifoEntry struct {
	item any
	rank uint64
	seq  uint64
}

// before orders entries by (rank, seq); seq is unique per PIFO, so no
// two entries tie.
func (e *pifoEntry) before(o *pifoEntry) bool {
	if e.rank != o.rank {
		return e.rank < o.rank
	}
	return e.seq < o.seq
}

// PIFO is a Push-In-First-Out queue (Sivaraman et al., SIGCOMM 2016),
// the building block for programmable packet scheduling that the paper's
// Traffic Management application class combines with event-driven
// programming. Items are inserted with a rank computed by the data-plane
// program; the head is always the minimum-rank item.
//
// The binary heap is sifted by hand rather than through container/heap,
// whose interface boxes every pushed entry. Both sifts compare the
// moving entry against the same slots container/heap's swaps would, so
// the array ends up laid out exactly as container/heap leaves it —
// TM.Snapshot writes that array as it lies.
type PIFO struct {
	h   []pifoEntry
	seq uint64
	cap int
}

// NewPIFO returns a PIFO bounded to capacity items (0 = unbounded).
func NewPIFO(capacity int) *PIFO {
	return &PIFO{cap: capacity}
}

// Len returns the number of queued items.
func (p *PIFO) Len() int { return len(p.h) }

// Push inserts item with the given rank. It returns false when the PIFO
// is full.
func (p *PIFO) Push(item any, rank uint64) bool {
	if p.cap > 0 && len(p.h) >= p.cap {
		return false
	}
	e := pifoEntry{item: item, rank: rank, seq: p.seq}
	p.seq++
	p.h = append(p.h, e)
	j := len(p.h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !e.before(&p.h[i]) {
			break
		}
		p.h[j] = p.h[i]
		j = i
	}
	p.h[j] = e
	return true
}

// Pop removes and returns the minimum-rank item.
func (p *PIFO) Pop() (any, bool) {
	if len(p.h) == 0 {
		return nil, false
	}
	item := p.h[0].item
	n := len(p.h) - 1
	last := p.h[n]
	p.h[n] = pifoEntry{}
	p.h = p.h[:n]
	if n > 0 {
		i := 0
		for {
			j := 2*i + 1
			if j >= n {
				break
			}
			if j2 := j + 1; j2 < n && p.h[j2].before(&p.h[j]) {
				j = j2
			}
			if !p.h[j].before(&last) {
				break
			}
			p.h[i] = p.h[j]
			i = j
		}
		p.h[i] = last
	}
	return item, true
}

// PeekRank returns the rank at the head without removing it.
func (p *PIFO) PeekRank() (uint64, bool) {
	if len(p.h) == 0 {
		return 0, false
	}
	return p.h[0].rank, true
}
