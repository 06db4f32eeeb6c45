package tm

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/packet"
)

// tmKinds are the event kinds the traffic manager raises.
var tmKinds = []events.Kind{
	events.BufferEnqueue, events.BufferDequeue, events.BufferOverflow, events.BufferUnderflow,
}

// gateRun drives a seeded enqueue/dequeue sequence through a fresh TM
// with the given kind filter (nil: no filter) and returns the delivered
// events, the dequeued packets' lengths and the final snapshot. The
// queue cap is small enough that tail drops happen, and dequeues drain
// ports often enough that underflows do.
func gateRun(t *testing.T, d Discipline, wants func(events.Kind) bool) ([]events.Event, []int, []byte) {
	t.Helper()
	tmgr := New(Config{Ports: 3, QueuesPerPort: 3, QueueCapBytes: 2000, Discipline: d, DRRQuantum: 300})
	var got []events.Event
	tmgr.OnEvent = func(e events.Event) { got = append(got, e) }
	tmgr.Wants = wants
	var deq []int
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		port := rng.Intn(3)
		if rng.Intn(5) < 3 {
			pkt := &packet.Packet{Data: make([]byte, 64+rng.Intn(900)), InPort: rng.Intn(3)}
			pkt.Data[0] = byte(i)
			q := rng.Intn(3)
			if d == FIFO {
				q = 0 // FIFO serves queue 0 only
			}
			tmgr.Enqueue(pkt, port, q, uint64(rng.Intn(50)), rng.Uint64(), 0)
		} else if pkt, ok := tmgr.Dequeue(port, 0); ok {
			deq = append(deq, pkt.Len())
		}
	}
	e := checkpoint.NewEncoder()
	tmgr.Snapshot(e)
	return got, deq, e.Bytes()
}

// TestTMEventGatingInvisible pins that the Wants filter only hides
// events: for every discipline and every subset of the TM's event kinds
// (the empty set, as on a program that binds none of them, through the
// full set), the delivered events are exactly the unfiltered stream
// restricted to the wanted kinds, sequence numbers included, the
// dequeued packets are the same, and the snapshot is byte-identical.
func TestTMEventGatingInvisible(t *testing.T) {
	for _, d := range []Discipline{FIFO, StrictPriority, DRR, PIFOSched} {
		t.Run(d.String(), func(t *testing.T) {
			ref, refDeq, refSnap := gateRun(t, d, nil)
			seen := map[events.Kind]int{}
			for _, e := range ref {
				seen[e.Kind]++
			}
			for _, k := range tmKinds {
				if seen[k] == 0 {
					t.Fatalf("unfiltered run raised no %v event; the sequence does not cover it", k)
				}
			}
			for mask := 0; mask < 1<<len(tmKinds); mask++ {
				var want [events.NumKinds]bool
				for i, k := range tmKinds {
					want[k] = mask&(1<<i) != 0
				}
				got, deq, snap := gateRun(t, d, func(k events.Kind) bool { return want[k] })
				var exp []events.Event
				for _, e := range ref {
					if want[e.Kind] {
						exp = append(exp, e)
					}
				}
				if len(got) != len(exp) {
					t.Fatalf("mask %04b: %d events delivered, want %d", mask, len(got), len(exp))
				}
				for i := range got {
					if got[i] != exp[i] {
						t.Fatalf("mask %04b: event %d = %+v, want %+v", mask, i, got[i], exp[i])
					}
				}
				if len(deq) != len(refDeq) {
					t.Fatalf("mask %04b: %d dequeues, want %d", mask, len(deq), len(refDeq))
				}
				for i := range deq {
					if deq[i] != refDeq[i] {
						t.Fatalf("mask %04b: dequeue %d length %d, want %d", mask, i, deq[i], refDeq[i])
					}
				}
				if !bytes.Equal(snap, refSnap) {
					t.Fatalf("mask %04b: snapshot differs from the unfiltered run", mask)
				}
			}
		})
	}
}
