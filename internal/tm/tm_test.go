package tm

import (
	"testing"
	"testing/quick"

	"repro/internal/events"
	"repro/internal/packet"
)

func mkPkt(n int) *packet.Packet {
	return &packet.Packet{Data: make([]byte, n)}
}

func TestPIFOOrdering(t *testing.T) {
	p := NewPIFO(0)
	p.Push("c", 30)
	p.Push("a", 10)
	p.Push("b", 20)
	p.Push("a2", 10) // tie: after a
	want := []string{"a", "a2", "b", "c"}
	for _, w := range want {
		v, ok := p.Pop()
		if !ok || v.(string) != w {
			t.Fatalf("pop = %v ok=%v, want %q", v, ok, w)
		}
	}
	if _, ok := p.Pop(); ok {
		t.Fatal("pop from empty PIFO")
	}
}

func TestPIFOCapacity(t *testing.T) {
	p := NewPIFO(2)
	if !p.Push(1, 1) || !p.Push(2, 2) {
		t.Fatal("pushes refused under capacity")
	}
	if p.Push(3, 3) {
		t.Fatal("push beyond capacity accepted")
	}
	if r, ok := p.PeekRank(); !ok || r != 1 {
		t.Errorf("PeekRank = %d ok=%v", r, ok)
	}
}

func TestPIFOHeapProperty(t *testing.T) {
	f := func(ranks []uint16) bool {
		p := NewPIFO(0)
		for _, r := range ranks {
			p.Push(nil, uint64(r))
		}
		prev := uint64(0)
		for {
			r, ok := p.PeekRank()
			if !ok {
				break
			}
			if r < prev {
				return false
			}
			prev = r
			p.Pop()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTMEnqueueDequeueEvents(t *testing.T) {
	var got []events.Event
	tmgr := New(Config{Ports: 2, QueuesPerPort: 1, QueueCapBytes: 1000})
	tmgr.OnEvent = func(e events.Event) { got = append(got, e) }

	if !tmgr.Enqueue(mkPkt(100), 1, 0, 0, 777, 10) {
		t.Fatal("enqueue refused")
	}
	if tmgr.PortBytes(1) != 100 || tmgr.TotalBytes() != 100 {
		t.Errorf("bytes = %d/%d", tmgr.PortBytes(1), tmgr.TotalBytes())
	}
	pkt, ok := tmgr.Dequeue(1, 20)
	if !ok || pkt.Len() != 100 {
		t.Fatalf("dequeue = %v ok=%v", pkt, ok)
	}
	// Expect enqueue, dequeue, underflow (port drained to zero).
	if len(got) != 3 {
		t.Fatalf("events = %v, want 3", got)
	}
	if got[0].Kind != events.BufferEnqueue || got[0].FlowHash != 777 || got[0].PktLen != 100 {
		t.Errorf("enqueue event = %+v", got[0])
	}
	if got[1].Kind != events.BufferDequeue || got[1].Port != 1 {
		t.Errorf("dequeue event = %+v", got[1])
	}
	if got[2].Kind != events.BufferUnderflow {
		t.Errorf("third event = %v, want underflow", got[2].Kind)
	}
}

func TestTMOverflow(t *testing.T) {
	var got []events.Event
	tmgr := New(Config{Ports: 1, QueueCapBytes: 150})
	tmgr.OnEvent = func(e events.Event) { got = append(got, e) }
	if !tmgr.Enqueue(mkPkt(100), 0, 0, 0, 1, 0) {
		t.Fatal("first enqueue refused")
	}
	if tmgr.Enqueue(mkPkt(100), 0, 0, 0, 2, 0) {
		t.Fatal("overflow enqueue accepted")
	}
	_, _, drops, _ := tmgr.Stats()
	if drops != 1 {
		t.Errorf("drops = %d", drops)
	}
	last := got[len(got)-1]
	if last.Kind != events.BufferOverflow || last.FlowHash != 2 {
		t.Errorf("overflow event = %+v", last)
	}
	// The packet that was dropped must not affect occupancy.
	if tmgr.TotalBytes() != 100 {
		t.Errorf("total = %d, want 100", tmgr.TotalBytes())
	}
}

func TestTMDequeueEmpty(t *testing.T) {
	tmgr := New(Config{Ports: 1})
	if _, ok := tmgr.Dequeue(0, 0); ok {
		t.Fatal("dequeue from empty port succeeded")
	}
}

func TestTMStrictPriority(t *testing.T) {
	tmgr := New(Config{Ports: 1, QueuesPerPort: 3, Discipline: StrictPriority})
	tmgr.Enqueue(mkPkt(60), 0, 2, 0, 1, 0)
	tmgr.Enqueue(mkPkt(61), 0, 0, 0, 2, 0)
	tmgr.Enqueue(mkPkt(62), 0, 1, 0, 3, 0)
	wantLens := []int{61, 62, 60} // queue 0, then 1, then 2
	for i, w := range wantLens {
		pkt, ok := tmgr.Dequeue(0, 0)
		if !ok || pkt.Len() != w {
			t.Fatalf("dequeue %d = len %d, want %d", i, pkt.Len(), w)
		}
	}
}

func TestTMFIFOOrder(t *testing.T) {
	tmgr := New(Config{Ports: 1})
	for i := 0; i < 5; i++ {
		tmgr.Enqueue(mkPkt(60+i), 0, 0, 0, uint64(i), 0)
	}
	for i := 0; i < 5; i++ {
		pkt, ok := tmgr.Dequeue(0, 0)
		if !ok || pkt.Len() != 60+i {
			t.Fatalf("fifo order broken at %d: len=%d", i, pkt.Len())
		}
	}
}

func TestTMPIFODequeueByRank(t *testing.T) {
	tmgr := New(Config{Ports: 1, QueuesPerPort: 4, Discipline: PIFOSched})
	tmgr.Enqueue(mkPkt(100), 0, 0, 50, 1, 0) // rank 50
	tmgr.Enqueue(mkPkt(200), 0, 1, 10, 2, 0) // rank 10 -> first
	tmgr.Enqueue(mkPkt(300), 0, 2, 30, 3, 0) // rank 30
	want := []int{200, 300, 100}
	for i, w := range want {
		pkt, ok := tmgr.Dequeue(0, 0)
		if !ok || pkt.Len() != w {
			t.Fatalf("pifo dequeue %d = %d, want %d", i, pkt.Len(), w)
		}
	}
}

func TestTMDRRFairness(t *testing.T) {
	// Two queues, one with big packets, one with small; DRR should give
	// roughly equal bytes over time.
	tmgr := New(Config{Ports: 1, QueuesPerPort: 2, Discipline: DRR, DRRQuantum: 500, QueueCapBytes: 1 << 20})
	for i := 0; i < 100; i++ {
		tmgr.Enqueue(mkPkt(1000), 0, 0, 0, 1, 0) // 100 KB of big packets
	}
	for i := 0; i < 1000; i++ {
		tmgr.Enqueue(mkPkt(100), 0, 1, 0, 2, 0) // 100 KB of small packets
	}
	bytes := [2]int{}
	var deqEvents []events.Event
	tmgr.OnEvent = func(e events.Event) {
		if e.Kind == events.BufferDequeue {
			deqEvents = append(deqEvents, e)
		}
	}
	served := 0
	for served < 100000 {
		pkt, ok := tmgr.Dequeue(0, 0)
		if !ok {
			break
		}
		served += pkt.Len()
	}
	for _, e := range deqEvents {
		bytes[e.Queue] += e.PktLen
	}
	if bytes[0] == 0 || bytes[1] == 0 {
		t.Fatalf("one queue starved: %v", bytes)
	}
	ratio := float64(bytes[0]) / float64(bytes[1])
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("DRR byte ratio = %.2f (%v), want ~1", ratio, bytes)
	}
}

func TestTMQueueAccounting(t *testing.T) {
	tmgr := New(Config{Ports: 2, QueuesPerPort: 2})
	tmgr.Enqueue(mkPkt(100), 0, 1, 0, 0, 0)
	tmgr.Enqueue(mkPkt(50), 1, 0, 0, 0, 0)
	if tmgr.QueueBytes(0, 1) != 100 || tmgr.QueueLen(0, 1) != 1 {
		t.Errorf("queue(0,1) = %d bytes %d pkts", tmgr.QueueBytes(0, 1), tmgr.QueueLen(0, 1))
	}
	if tmgr.TotalBytes() != 150 {
		t.Errorf("total = %d", tmgr.TotalBytes())
	}
	enq, deq, drops, peak := tmgr.Stats()
	if enq != 2 || deq != 0 || drops != 0 || peak != 150 {
		t.Errorf("stats = %d/%d/%d/%d", enq, deq, drops, peak)
	}
}

func TestTMConservationProperty(t *testing.T) {
	// Property: bytes in == bytes out + bytes buffered, under random
	// enqueue/dequeue interleavings.
	f := func(ops []uint8) bool {
		tmgr := New(Config{Ports: 1, QueueCapBytes: 400})
		in, out := 0, 0
		for _, op := range ops {
			if op%3 != 0 {
				n := 60 + int(op)
				if tmgr.Enqueue(mkPkt(n), 0, 0, 0, 0, 0) {
					in += n
				}
			} else if pkt, ok := tmgr.Dequeue(0, 0); ok {
				out += pkt.Len()
			}
		}
		return in == out+tmgr.TotalBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisciplineStrings(t *testing.T) {
	for _, d := range []Discipline{FIFO, StrictPriority, DRR, PIFOSched} {
		if d.String() == "" {
			t.Errorf("discipline %d unnamed", d)
		}
	}
}
