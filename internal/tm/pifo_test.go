package tm

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap reference the hand-written PIFO heap
// must match slot for slot.
type refHeap []pifoEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(&h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(pifoEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestPIFOMatchesContainerHeap drives seeded random pushes and pops —
// narrow rank ranges, so equal ranks are common — through the PIFO and
// through container/heap, and after every operation requires the two
// heap arrays to be identical. TM.Snapshot writes the array as it lies,
// so a different layout would change checkpoint bytes.
func TestPIFOMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPIFO(0)
		var ref refHeap
		var seq uint64
		ranks := uint64(1 + rng.Intn(16))
		for op := 0; op < 5000; op++ {
			if ref.Len() == 0 || rng.Intn(5) < 3 {
				rank := uint64(rng.Int63n(int64(ranks)))
				item := op
				p.Push(item, rank)
				heap.Push(&ref, pifoEntry{item: item, rank: rank, seq: seq})
				seq++
			} else {
				got, ok := p.Pop()
				want := heap.Pop(&ref).(pifoEntry)
				if !ok || got != want.item {
					t.Fatalf("seed %d op %d: Pop = (%v, %v), reference %v", seed, op, got, ok, want.item)
				}
			}
			if len(p.h) != len(ref) {
				t.Fatalf("seed %d op %d: %d entries, reference %d", seed, op, len(p.h), len(ref))
			}
			for i := range ref {
				if p.h[i] != ref[i] {
					t.Fatalf("seed %d op %d: slot %d = %+v, reference %+v", seed, op, i, p.h[i], ref[i])
				}
			}
		}
	}
}

// TestPIFOZeroAlloc pins Push and Pop at zero allocations once the heap
// array has grown: the PIFOSched discipline runs them per packet.
func TestPIFOZeroAlloc(t *testing.T) {
	p := NewPIFO(0)
	for i := 0; i < 64; i++ {
		p.Push(nil, uint64(i*7%13))
	}
	i := uint64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		i++
		p.Push(nil, i*2654435761>>16)
		p.Pop()
	}); avg != 0 {
		t.Errorf("PIFO push/pop allocates %v per op, want 0", avg)
	}
}
