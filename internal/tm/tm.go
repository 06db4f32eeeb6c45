package tm

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Discipline selects how a port schedules among its queues.
type Discipline uint8

// Scheduling disciplines.
const (
	// FIFO serves the port's queues as one logical FIFO (queue 0 only).
	FIFO Discipline = iota
	// StrictPriority always serves the lowest-numbered non-empty queue.
	StrictPriority
	// DRR serves queues with deficit round robin (byte-fair).
	DRR
	// PIFOSched serves the port from a single PIFO ordered by the rank
	// supplied at enqueue time (programmable scheduling).
	PIFOSched
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case StrictPriority:
		return "prio"
	case DRR:
		return "drr"
	case PIFOSched:
		return "pifo"
	default:
		return fmt.Sprintf("discipline(%d)", uint8(d))
	}
}

// Config sizes a traffic manager.
type Config struct {
	Ports         int
	QueuesPerPort int
	// QueueCapBytes bounds each queue's occupancy in bytes; a packet
	// that would exceed it is dropped (tail drop) with a BufferOverflow
	// event.
	QueueCapBytes int
	Discipline    Discipline
	// DRRQuantum is the per-round byte quantum for DRR (default 1514).
	DRRQuantum int
}

// item is a buffered packet with its enqueue annotations.
type item struct {
	pkt      *packet.Packet
	flowHash uint64
	rank     uint64
	enqAt    sim.Time
}

type queue struct {
	items []item
	head  int
	bytes int
}

func (q *queue) len() int { return len(q.items) - q.head }

func (q *queue) push(it item) {
	q.items = append(q.items, it)
	q.bytes += it.pkt.Len()
}

func (q *queue) pop() (item, bool) {
	if q.head >= len(q.items) {
		return item{}, false
	}
	it := q.items[q.head]
	q.items[q.head] = item{} // release reference
	q.head++
	q.bytes -= it.pkt.Len()
	if q.head > 512 && q.head*2 > len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return it, true
}

type port struct {
	queues  []queue
	pifo    *PIFO
	bytes   int // total buffered bytes across queues
	deficit []int
	rr      int  // DRR pointer
	granted bool // DRR: quantum already granted for the current visit
}

// TM is the traffic manager. It is a passive data structure: the switch
// model calls Enqueue when the ingress pipeline emits a packet and Dequeue
// when an output port is ready for the next packet. Every state change is
// announced on the event tap, which the event-driven architecture routes
// into its event queues (and the baseline architecture ignores).
type TM struct {
	cfg   Config
	ports []port

	// OnEvent, when non-nil, receives BufferEnqueue, BufferDequeue,
	// BufferOverflow and BufferUnderflow events as they happen, each
	// stamped with the TM's next event sequence number. Wants, when
	// non-nil, filters the tap by kind: it is asked at emit time, and an
	// event whose kind it rejects is never built or delivered. A rejected
	// event still consumes its sequence number, so the numbering (and a
	// checkpoint of it) is the same with or without a filter. The switch
	// installs its subscription predicate here, so only events some
	// handler will see cost anything.
	OnEvent func(events.Event)
	Wants   func(events.Kind) bool

	seq       uint64
	enqueues  uint64
	dequeues  uint64
	drops     uint64
	maxBytes  int
	totalByte int
}

// New builds a traffic manager. Zero-value config fields get defaults:
// 1 port, 1 queue per port, 512 KiB per queue, FIFO.
func New(cfg Config) *TM {
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	if cfg.QueuesPerPort <= 0 {
		cfg.QueuesPerPort = 1
	}
	if cfg.QueueCapBytes <= 0 {
		cfg.QueueCapBytes = 512 << 10
	}
	if cfg.DRRQuantum <= 0 {
		cfg.DRRQuantum = 1514
	}
	t := &TM{cfg: cfg, ports: make([]port, cfg.Ports)}
	for i := range t.ports {
		t.ports[i].queues = make([]queue, cfg.QueuesPerPort)
		t.ports[i].deficit = make([]int, cfg.QueuesPerPort)
		if cfg.Discipline == PIFOSched {
			t.ports[i].pifo = NewPIFO(0)
		}
	}
	return t
}

// Config returns the configuration the TM was built with.
func (t *TM) Config() Config { return t.cfg }

// subscribed reports whether an event of kind k is to be built and
// passed to emit. A kind the Wants filter rejects consumes its sequence
// number here instead.
func (t *TM) subscribed(k events.Kind) bool {
	if t.OnEvent == nil {
		return false
	}
	if t.Wants != nil && !t.Wants(k) {
		t.seq++
		return false
	}
	return true
}

// emit stamps and delivers an event subscribed has admitted.
func (t *TM) emit(e *events.Event) {
	e.Seq = t.seq
	t.seq++
	t.OnEvent(*e)
}

// Enqueue offers a packet to output queue q of the given port. rank is
// the PIFO rank (ignored by other disciplines); flowHash annotates the
// enqueue/dequeue events for per-flow state updates. It returns false when
// the packet was dropped (queue full), which raises a BufferOverflow
// event rather than a BufferEnqueue event.
func (t *TM) Enqueue(pkt *packet.Packet, outPort, q int, rank, flowHash uint64, now sim.Time) bool {
	p := &t.ports[outPort]
	if q < 0 || q >= t.cfg.QueuesPerPort {
		q = 0
	}
	qu := &p.queues[q]
	if qu.bytes+pkt.Len() > t.cfg.QueueCapBytes {
		t.drops++
		if t.subscribed(events.BufferOverflow) {
			t.emit(&events.Event{
				Kind: events.BufferOverflow, When: now, Port: outPort, Queue: q,
				PktLen: pkt.Len(), FlowHash: flowHash,
			})
		}
		return false
	}
	it := item{pkt: pkt, flowHash: flowHash, rank: rank, enqAt: now}
	qu.push(it)
	p.bytes += pkt.Len()
	t.totalByte += pkt.Len()
	if t.totalByte > t.maxBytes {
		t.maxBytes = t.totalByte
	}
	if p.pifo != nil {
		p.pifo.Push(pifoRef{q: q}, rank)
	}
	t.enqueues++
	if t.subscribed(events.BufferEnqueue) {
		t.emit(&events.Event{
			Kind: events.BufferEnqueue, When: now, Port: outPort, Queue: q,
			PktLen: pkt.Len(), FlowHash: flowHash,
		})
	}
	return true
}

// pifoRef remembers which queue the PIFO entry's packet sits in; packets
// themselves stay in per-queue FIFOs so that byte accounting is uniform.
type pifoRef struct{ q int }

// Dequeue removes the next packet from the given output port according to
// the discipline. ok is false when the port is empty. A dequeue that
// leaves the port with no buffered bytes raises BufferUnderflow after the
// BufferDequeue event.
func (t *TM) Dequeue(outPort int, now sim.Time) (*packet.Packet, bool) {
	p := &t.ports[outPort]
	var it item
	var q int
	var ok bool
	switch t.cfg.Discipline {
	case PIFOSched:
		var ref any
		if ref, ok = p.pifo.Pop(); ok {
			q = ref.(pifoRef).q
			it, ok = p.queues[q].pop()
		}
	case StrictPriority:
		for i := range p.queues {
			if p.queues[i].len() > 0 {
				q = i
				it, ok = p.queues[i].pop()
				break
			}
		}
	case DRR:
		it, q, ok = t.drrPick(p)
	default: // FIFO
		q = 0
		it, ok = p.queues[0].pop()
	}
	if !ok {
		return nil, false
	}
	p.bytes -= it.pkt.Len()
	t.totalByte -= it.pkt.Len()
	t.dequeues++
	if t.subscribed(events.BufferDequeue) {
		t.emit(&events.Event{
			Kind: events.BufferDequeue, When: now, Port: outPort, Queue: q,
			PktLen: it.pkt.Len(), FlowHash: it.flowHash,
		})
	}
	if p.bytes == 0 && t.subscribed(events.BufferUnderflow) {
		t.emit(&events.Event{Kind: events.BufferUnderflow, When: now, Port: outPort, Queue: q})
	}
	return it.pkt, true
}

// drrPick implements deficit round robin across the port's queues: each
// visit to a backlogged queue grants one quantum, then the queue is served
// while its deficit covers the head packet.
func (t *TM) drrPick(p *port) (item, int, bool) {
	n := len(p.queues)
	// A queue's deficit can require several quantum grants for a large
	// head packet, so allow enough iterations for the worst case.
	maxTries := 2 * n * (packet.MaxFrameLen/t.cfg.DRRQuantum + 2)
	for tries := 0; tries < maxTries; tries++ {
		q := p.rr
		qu := &p.queues[q]
		if qu.len() == 0 {
			p.deficit[q] = 0
			p.rr = (p.rr + 1) % n
			p.granted = false
			continue
		}
		if !p.granted {
			p.deficit[q] += t.cfg.DRRQuantum
			p.granted = true
		}
		head := qu.items[qu.head]
		if p.deficit[q] < head.pkt.Len() {
			p.rr = (p.rr + 1) % n
			p.granted = false
			continue
		}
		p.deficit[q] -= head.pkt.Len()
		it, _ := qu.pop()
		if qu.len() == 0 {
			p.deficit[q] = 0
			p.rr = (p.rr + 1) % n
			p.granted = false
		}
		return it, q, true
	}
	return item{}, 0, false
}

// PortBytes returns the buffered bytes on a port.
func (t *TM) PortBytes(outPort int) int { return t.ports[outPort].bytes }

// QueueBytes returns the buffered bytes in one queue.
func (t *TM) QueueBytes(outPort, q int) int { return t.ports[outPort].queues[q].bytes }

// QueueLen returns the number of packets in one queue.
func (t *TM) QueueLen(outPort, q int) int { return t.ports[outPort].queues[q].len() }

// TotalBytes returns the buffered bytes across the whole TM.
func (t *TM) TotalBytes() int { return t.totalByte }

// Stats reports lifetime counters: enqueues, dequeues, overflow drops and
// the peak total buffer occupancy in bytes.
func (t *TM) Stats() (enq, deq, drops uint64, peakBytes int) {
	return t.enqueues, t.dequeues, t.drops, t.maxBytes
}
