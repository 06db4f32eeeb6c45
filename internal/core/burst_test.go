package core

import (
	"testing"

	"repro/internal/p4"
	"repro/internal/packet"
	"repro/internal/sim"
)

const burstFrames = 64

// burstForwardRig is p4ForwardRig with a backlog: the same compiled µP4
// forward program, but each step delivers a whole arrival burst of
// frames to one port at one instant and advances the scheduler far
// enough to drain it, so the rx ring, the pipeline conveyor and the TM
// queue all hold many packets at once.
func burstForwardRig(tb testing.TB) (step func(), sw *Switch) {
	sched := sim.NewScheduler()
	sw = New(Config{}, EventDriven(), sched)
	inst := p4.MustCompile(forwardProgramSrc).Instantiate("fwd", p4.Options{Interpret: false})
	if err := inst.InstallEntry("fwd", []uint64{uint64(packet.IP4(10, 1, 0, 1))}, nil, 0, "set_port", 1); err != nil {
		tb.Fatal(err)
	}
	if err := inst.InstallEntry("fwd", []uint64{uint64(packet.IP4(10, 0, 0, 1))}, nil, 0, "set_port", 0); err != nil {
		tb.Fatal(err)
	}
	sw.MustLoad(inst.Program())

	frames := make([][]byte, burstFrames)
	for i := range frames {
		frames[i] = packet.BuildFrame(packet.FrameSpec{Flow: packet.Flow{
			Src: packet.IP4(10, 0, 0, 1), Dst: packet.IP4(10, 1, 0, 1),
			SrcPort: uint16(1 + i%4), DstPort: 2, Proto: packet.ProtoUDP,
		}})
	}
	gap := (10 * sim.Gbps).ByteTime(len(frames[0]) + WireOverhead)
	step = func() {
		for _, f := range frames {
			sw.Inject(0, f)
		}
		sched.Run(sched.Now() + burstFrames*gap)
	}
	// Warm the rx rings, packet pool, conveyor and TM queues past their
	// steady-state sizes.
	for i := 0; i < 100; i++ {
		step()
	}
	return step, sw
}

// TestSwitchBurstForwardZeroAlloc asserts the forward path stays free of
// heap allocations under a 64-frame arrival burst, like its one-frame
// twin TestSwitchForwardZeroAlloc.
func TestSwitchBurstForwardZeroAlloc(t *testing.T) {
	step, sw := burstForwardRig(t)
	before := sw.Stats().TxPackets
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("forward path allocates %v per arrival burst, want 0", avg)
	}
	if sw.Stats().TxPackets == before {
		t.Fatal("nothing forwarded during the measurement")
	}
}

// TestBurstInjectLinkDown pins the port-down accounting of Inject: every
// frame of an arrival burst offered to a downed port is one RxDropped,
// and none of them reaches the pipeline.
func TestBurstInjectLinkDown(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(Config{Ports: 2}, EventDriven(), sched)
	sw.MustLoad(xconnect())
	sw.SetLink(0, false)
	for i := 0; i < 3; i++ {
		sw.Inject(0, frame(100, 1, 2))
	}
	if got := sw.Stats().RxDropped; got != 3 {
		t.Fatalf("RxDropped = %d after burst into downed port, want 3", got)
	}
	sched.Run(sim.Millisecond)
	if got := sw.Stats().TxPackets; got != 0 {
		t.Fatalf("TxPackets = %d, want 0 (all frames dropped at rx)", got)
	}
}

// BenchmarkSwitchForwardPathBurst measures the forward path under a
// 64-frame arrival burst per iteration (0 allocs/op). Compare ns/op ÷ 64
// against BenchmarkSwitchForwardPath's one-frame steps.
func BenchmarkSwitchForwardPathBurst(b *testing.B) {
	step, sw := burstForwardRig(b)
	benchForward(b, step, sw)
}
