package netsim

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
)

// burstDeliverRig is deliverRig with arrival bursts: each step pushes 16
// frames through host NIC serialization, the first link, the switch and
// the second link. NIC serialization (~18ns/frame at 100G) is much
// shorter than the 100ns propagation, so several pooled flights are in
// the air on one link at once.
func burstDeliverRig(tb testing.TB) (step func(), rx *uint64) {
	const frames = 16
	sched := sim.NewScheduler()
	net := New(sched)
	sw := core.New(core.Config{Name: "s"}, core.EventDriven(), sched)
	sw.MustLoad(fwdTo(1))
	net.AddSwitch(sw)
	src := net.NewHost("src", packet.IP4(10, 0, 0, 1))
	dst := net.NewHost("dst", packet.IP4(10, 0, 0, 2))
	net.Attach(src, sw, 0, 100*sim.Nanosecond)
	net.Attach(dst, sw, 1, 100*sim.Nanosecond)

	data := testFrame(200)
	gap := (100 * sim.Gbps).ByteTime(len(data) + 24)
	step = func() {
		for i := 0; i < frames; i++ {
			src.Send(data)
		}
		sched.Run(sched.Now() + 10*frames*gap)
	}
	for i := 0; i < 300; i++ {
		step()
	}
	return step, &dst.RxPackets
}

// TestNetsimBurstDeliverZeroAlloc asserts the delivery path stays free of
// heap allocations when whole bursts are in flight: pooled NIC
// transmissions, many pooled flights per link, the switch, and back out.
func TestNetsimBurstDeliverZeroAlloc(t *testing.T) {
	step, rx := burstDeliverRig(t)
	before := *rx
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("burst delivery hot path allocates %v per burst, want 0", avg)
	}
	if *rx == before {
		t.Fatal("nothing delivered during the measurement")
	}
}

// lenFrame builds a frame whose total length doubles as its identity:
// the receiver recovers the send order from the delivered sizes.
func lenFrame(n int) []byte {
	return packet.BuildFrame(packet.FrameSpec{
		Flow: packet.Flow{
			Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 0, 0, 2),
			SrcPort: 1, DstPort: 2, Proto: packet.ProtoUDP,
		},
		TotalLen: n,
	})
}

// wireCopy is one frame copy an impairment put on the wire: its arrival
// instant, its position in the link's send order, and its identity.
type wireCopy struct {
	at   sim.Time
	seq  int
	size int
}

// TestBurstWireOrderUnderImpairments is the wire-order property pin:
// frames must arrive in the wire band's (arrival time, send order) total
// order. h1 sends bursts of 8 length-tagged frames every 20µs; for a
// middle window its link drops every 5th frame, duplicates every 7th
// with enough extra delay to reorder the copy past later bursts, and
// jitters every 3rd. The impairment records every copy it lets through,
// and the order h2 receives them in (the switch forwards one input port
// to one output FIFO) must equal those records sorted by (arrival, send
// order).
func TestBurstWireOrderUnderImpairments(t *testing.T) {
	const latency = 2 * sim.Microsecond
	sched := sim.NewScheduler()
	net := New(sched)
	sw := core.New(core.Config{Name: "s"}, core.EventDriven(), sched)
	sw.MustLoad(fwdTo(1))
	net.AddSwitch(sw)
	h1 := net.NewHost("h1", packet.IP4(10, 0, 0, 1))
	h2 := net.NewHost("h2", packet.IP4(10, 0, 0, 2))
	l := net.Attach(h1, sw, 0, latency)
	net.Attach(h2, sw, 1, 100*sim.Nanosecond)

	var order []int
	h2.OnRecv = func(d []byte) { order = append(order, len(d)) }

	var copies []wireCopy
	nimp := 0
	adverse := false
	l.SetImpair(func(data []byte) []Deliverable {
		nimp++
		var outs []Deliverable
		switch {
		case !adverse:
			outs = []Deliverable{{Data: data}}
		case nimp%5 == 0:
		case nimp%7 == 0:
			outs = []Deliverable{
				{Data: data},
				{Data: append([]byte(nil), data...), ExtraDelay: 30 * sim.Microsecond},
			}
		case nimp%3 == 0:
			outs = []Deliverable{{Data: data, ExtraDelay: 200 * sim.Nanosecond}}
		default:
			outs = []Deliverable{{Data: data}}
		}
		for _, o := range outs {
			copies = append(copies, wireCopy{
				at: sched.Now() + latency + o.ExtraDelay, seq: len(copies), size: len(o.Data),
			})
		}
		return outs
	})

	const bursts = 30
	for i := 0; i < bursts; i++ {
		i := i
		sched.At(sim.Time(1+i*20)*sim.Microsecond, func() {
			for j := 0; j < 8; j++ {
				h1.Send(lenFrame(100 + i*8 + j))
			}
		})
	}
	// Adverse window covering bursts 10-19.
	sched.At(200*sim.Microsecond, func() { adverse = true })
	sched.At(400*sim.Microsecond, func() { adverse = false })
	sched.Run(sim.Millisecond)

	sort.SliceStable(copies, func(i, j int) bool {
		if copies[i].at != copies[j].at {
			return copies[i].at < copies[j].at
		}
		return copies[i].seq < copies[j].seq
	})
	reordered := false
	for i := range copies {
		if i > 0 && copies[i].size < copies[i-1].size {
			reordered = true
		}
	}
	if l.Dropped() == 0 || l.Duplicated() == 0 || !reordered {
		t.Fatalf("impairment window left a case uncovered: dropped=%d duplicated=%d reordered=%v",
			l.Dropped(), l.Duplicated(), reordered)
	}
	if len(order) != len(copies) {
		t.Fatalf("h2 received %d frames, the wire carried %d copies", len(order), len(copies))
	}
	for i, c := range copies {
		if order[i] != c.size {
			t.Fatalf("delivery %d: got frame %d, wire order says %d", i, order[i], c.size)
		}
	}
}
