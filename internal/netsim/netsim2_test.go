package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
)

func TestTapTransmitObservesWithoutInterfering(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	sw := core.New(core.Config{Name: "s"}, core.Baseline(), sched)
	sw.MustLoad(fwdTo(1))
	net.AddSwitch(sw)
	h1 := net.NewHost("h1", packet.IP4(1, 0, 0, 1))
	h2 := net.NewHost("h2", packet.IP4(1, 0, 0, 2))
	net.Attach(h1, sw, 0, 0)
	net.Attach(h2, sw, 1, 0)

	var tapped [][2]int // (port, len)
	net.TapTransmit(sw, func(port int, data []byte) {
		tapped = append(tapped, [2]int{port, len(data)})
	})
	h1.Send(testFrame(200))
	sched.Run(sim.Millisecond)

	if h2.RxPackets != 1 {
		t.Fatalf("delivery broken by tap: rx=%d", h2.RxPackets)
	}
	if len(tapped) != 1 || tapped[0][0] != 1 || tapped[0][1] != 200 {
		t.Errorf("tapped = %v", tapped)
	}
}

func TestHostSendWhileDetachedPanics(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	h := net.NewHost("h", packet.IP4(1, 0, 0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic sending from unattached host")
		}
	}()
	h.Send(testFrame(100))
}

func TestFailRepairIdempotent(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	s1 := core.New(core.Config{Name: "s1"}, core.EventDriven(), sched)
	s2 := core.New(core.Config{Name: "s2"}, core.EventDriven(), sched)
	net.AddSwitch(s1)
	net.AddSwitch(s2)
	l := net.Connect(s1, 1, s2, 1, 0)
	net.Fail(l)
	net.Fail(l) // no double event
	net.Repair(l)
	net.Repair(l)
	if !l.Up() {
		t.Error("link down after repair")
	}
	if !s1.LinkIsUp(1) || !s2.LinkIsUp(1) {
		t.Error("switch port state inconsistent")
	}
}

func TestConnectLeafSpine(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	var tors, spines []*core.Switch
	for i := 0; i < 3; i++ {
		sw := core.New(core.Config{Name: "tor", Ports: 4}, core.Baseline(), sched)
		net.AddSwitch(sw)
		tors = append(tors, sw)
	}
	for j := 0; j < 3; j++ {
		sw := core.New(core.Config{Name: "spine", Ports: 4}, core.Baseline(), sched)
		net.AddSwitch(sw)
		spines = append(spines, sw)
	}
	net.ConnectLeafSpine(tors, spines, sim.Microsecond)
	if got := len(net.Links()); got != 9 {
		t.Fatalf("links = %d, want 9", got)
	}
	// Every tor uplink and spine downlink is wired.
	for i, tor := range tors {
		for j, spine := range spines {
			if net.LinkAt(tor, 1+j) == nil || net.LinkAt(spine, i) == nil {
				t.Fatalf("missing link tor%d:%d <-> spine%d:%d", i, 1+j, j, i)
			}
			if net.LinkAt(tor, 1+j) != net.LinkAt(spine, i) {
				t.Fatalf("mismatched wiring at tor%d/spine%d", i, j)
			}
		}
	}
}

func TestConnectLeafSpineValidatesPorts(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	tor := core.New(core.Config{Name: "tor", Ports: 2}, core.Baseline(), sched)
	spine := core.New(core.Config{Name: "spine", Ports: 4}, core.Baseline(), sched)
	net.AddSwitch(tor)
	net.AddSwitch(spine)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for too few ToR ports")
		}
	}()
	net.ConnectLeafSpine([]*core.Switch{tor}, []*core.Switch{spine, spine, spine}, 0)
}

// mustPanic runs f and requires it to panic with exactly msg.
func mustPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r != msg {
			t.Fatalf("panic = %v, want %q", r, msg)
		}
	}()
	f()
}

// TestConnectRejectsPortOutOfRange pins that a link to a port the switch
// does not have fails when the topology is built, not at the first frame.
func TestConnectRejectsPortOutOfRange(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	s1 := core.New(core.Config{Name: "s1", Ports: 4}, core.Baseline(), sched)
	s2 := core.New(core.Config{Name: "s2", Ports: 2}, core.Baseline(), sched)
	net.AddSwitch(s1)
	net.AddSwitch(s2)
	mustPanic(t, "netsim: port 2 out of range for switch s2 (2 ports)", func() {
		net.Connect(s1, 0, s2, 2, sim.Microsecond)
	})
	mustPanic(t, "netsim: port -1 out of range for switch s1 (4 ports)", func() {
		net.Connect(s1, -1, s2, 0, sim.Microsecond)
	})
	if len(net.Links()) != 0 {
		t.Fatalf("a rejected Connect left %d links behind", len(net.Links()))
	}
	if l := net.Connect(s1, 3, s2, 1, sim.Microsecond); net.LinkAt(s1, 3) != l || net.LinkAt(s2, 1) != l {
		t.Fatal("LinkAt does not find a valid link")
	}
	if net.LinkAt(s1, 4) != nil || net.LinkAt(s1, -1) != nil {
		t.Fatal("LinkAt returned a link for a port the switch does not have")
	}
}

// TestAttachRejectsPortOutOfRange is TestConnectRejectsPortOutOfRange for
// host links.
func TestAttachRejectsPortOutOfRange(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	sw := core.New(core.Config{Name: "s", Ports: 4}, core.Baseline(), sched)
	net.AddSwitch(sw)
	h := net.NewHost("h", packet.IP4(10, 0, 0, 1))
	mustPanic(t, "netsim: port 4 out of range for switch s (4 ports)", func() {
		net.Attach(h, sw, 4, sim.Microsecond)
	})
	if len(net.Links()) != 0 {
		t.Fatalf("a rejected Attach left %d links behind", len(net.Links()))
	}
}

// TestSwitchNotAddedPanics pins that taps and links on a switch the
// network never registered fail loudly instead of going unheard.
func TestSwitchNotAddedPanics(t *testing.T) {
	sched := sim.NewScheduler()
	net := New(sched)
	added := core.New(core.Config{Name: "added"}, core.Baseline(), sched)
	stray := core.New(core.Config{Name: "stray"}, core.Baseline(), sched)
	net.AddSwitch(added)
	mustPanic(t, "netsim: TapTransmit: switch stray not added with AddSwitch", func() {
		net.TapTransmit(stray, func(int, []byte) {})
	})
	mustPanic(t, "netsim: link: switch stray not added with AddSwitch", func() {
		net.Connect(added, 0, stray, 0, sim.Microsecond)
	})
	if net.LinkAt(stray, 0) != nil {
		t.Fatal("LinkAt found a link on a switch that was never added")
	}
}
