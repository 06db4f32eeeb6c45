package netsim

import (
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// netRig is the checkpoint differential topology: h1 -- s1 == s2 -- h2
// with bidirectional saturate load, so frames are mid-flight on the
// trunk and mid-serialization on the NICs when the snapshot is cut.
type netRig struct {
	sched *sim.Scheduler
	net   *Network
	sws   [2]*core.Switch
	hosts [2]*Host
	gens  [2]*workload.Gen
}

func buildNetRig(t testing.TB, start bool) *netRig {
	t.Helper()
	return buildNetRigWith(t, start, 100*sim.Nanosecond, false)
}

// buildNetRigWith is buildNetRig with the host links' latency chosen and,
// with impairTrunk, an impairment on the trunk that drops, duplicates
// and delays frames so their arrival times leave send order. The
// impairment keys its decisions off the trunk's restored Sent counter,
// so a resumed run makes the same ones.
func buildNetRigWith(t testing.TB, start bool, hostLatency sim.Time, impairTrunk bool) *netRig {
	t.Helper()
	r := &netRig{sched: sim.NewScheduler()}
	r.net = New(r.sched)
	for i := range r.sws {
		sw := core.New(core.Config{Name: fmt.Sprintf("s%d", i+1)}, core.EventDriven(), r.sched)
		sw.MustLoad(pingPong())
		r.net.AddSwitch(sw)
		r.sws[i] = sw
	}
	r.hosts[0] = r.net.NewHost("h1", packet.IP4(10, 0, 0, 1))
	r.hosts[1] = r.net.NewHost("h2", packet.IP4(10, 0, 0, 2))
	r.net.Attach(r.hosts[0], r.sws[0], 0, hostLatency)
	r.net.Attach(r.hosts[1], r.sws[1], 0, hostLatency)
	// Trunk latency exceeds the emission cadence, so frames are on the
	// wire at any snapshot cut.
	trunk := r.net.Connect(r.sws[0], 1, r.sws[1], 1, 5*sim.Microsecond)
	if impairTrunk {
		trunk.SetImpair(func(data []byte) []Deliverable {
			switch trunk.Sent() % 7 {
			case 2:
				return nil
			case 4:
				return []Deliverable{{Data: data}, {Data: data, ExtraDelay: 20 * sim.Microsecond}}
			case 6:
				return []Deliverable{{Data: data, ExtraDelay: 12 * sim.Microsecond}}
			}
			return []Deliverable{{Data: data}}
		})
	}

	rng := sim.NewRNG(17)
	for i, h := range r.hosts {
		peer := r.hosts[1-i]
		g := workload.NewGen(h.Scheduler(), rng.Split(), h.Send)
		sc := workload.SaturateConfig{
			Flow: packet.Flow{
				Src: h.IP, Dst: peer.IP,
				SrcPort: uint16(1000 + i), DstPort: 80, Proto: packet.ProtoUDP,
			},
			Rate: 5 * sim.Gbps, Load: 0.8, Size: 800, Until: 2 * sim.Millisecond,
		}
		if start {
			g.StartSaturate(sc)
		} else {
			g.PrepareSaturate(sc)
		}
		r.gens[i] = g
	}
	return r
}

func (r *netRig) snapshot() []byte {
	e := checkpoint.NewEncoder()
	clk := r.sched.Clock()
	e.I64(int64(clk.Now))
	e.U64(clk.Seq)
	e.U64(clk.Fired)
	for _, sw := range r.sws {
		sw.Snapshot(e)
	}
	r.net.Snapshot(e)
	for _, g := range r.gens {
		g.Snapshot(e)
	}
	return e.Bytes()
}

func (r *netRig) restore(t testing.TB, buf []byte) {
	t.Helper()
	d := checkpoint.NewDecoder(buf)
	var clk sim.ClockState
	clk.Now = sim.Time(d.I64())
	clk.Seq = d.U64()
	clk.Fired = d.U64()
	for _, sw := range r.sws {
		sw.Restore(d)
	}
	r.net.Restore(d)
	for _, g := range r.gens {
		g.Restore(d)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("restore left %d bytes unread", d.Remaining())
	}
	r.sched.DropFired(clk.Now, clk.Seq)
	r.sched.RestoreClock(clk)
}

// fingerprint digests everything externally observable about the run.
func (r *netRig) fingerprint() string {
	out := ""
	for _, h := range r.hosts {
		out += fmt.Sprintf("%s rx=%d/%dB held=%d\n", h.Name, h.RxPackets, h.RxBytes, h.HeldFrames)
	}
	for _, sw := range r.sws {
		st := sw.Stats()
		out += fmt.Sprintf("%s %+v\n", sw.Name(), st)
	}
	for i, l := range r.net.Links() {
		for dir := 0; dir < 2; dir++ {
			c := l.Counters(dir)
			out += fmt.Sprintf("link%d dir%d sent=%d delivered=%d inflight=%d dropped=%d dup=%d\n",
				i, dir, c.Sent, c.Delivered, c.InFlight(), c.Dropped, c.Duplicated)
		}
	}
	for i, g := range r.gens {
		out += fmt.Sprintf("gen%d sent=%d/%dB\n", i, g.SentPackets, g.SentBytes)
	}
	return out
}

// TestNetworkCheckpointResumeIdentical is the network-level differential
// pin: cut a snapshot mid-run with frames on the wire, pour it into an
// identically constructed topology, and require every observable counter
// — host rx, switch stats, per-direction link counters, generator
// emissions — to match the uninterrupted run exactly.
func TestNetworkCheckpointResumeIdentical(t *testing.T) {
	const half, full = sim.Millisecond, 2500 * sim.Microsecond

	a := buildNetRig(t, true)
	a.sched.Run(half)

	// The cut must exercise the wire band: at 5 Gbps over a 5 µs trunk
	// there are frames mid-flight at any instant.
	flights := 0
	for _, lf := range a.net.inFlight() {
		flights += len(lf[0]) + len(lf[1])
	}
	if flights == 0 {
		t.Fatal("no frames in flight at the snapshot cut; wire restore is vacuous")
	}
	snap := a.snapshot()
	a.sched.Run(full)

	b := buildNetRig(t, false)
	b.restore(t, snap)
	if b.sched.Now() != half {
		t.Fatalf("restored clock at %v, want %v", b.sched.Now(), half)
	}
	b.sched.Run(full)

	if got, want := b.fingerprint(), a.fingerprint(); got != want {
		t.Errorf("resumed run diverges:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want, got)
	}
	if a.hosts[1].RxPackets == 0 {
		t.Fatal("nothing delivered; differential is vacuous")
	}
}

// TestNetworkRestoreRefusesTopologyMismatch pins the guard: a snapshot
// only loads into a network with the same link and host layout.
func TestNetworkRestoreRefusesTopologyMismatch(t *testing.T) {
	a := buildNetRig(t, true)
	a.sched.Run(100 * sim.Microsecond)
	e := checkpoint.NewEncoder()
	a.net.Snapshot(e)

	sched := sim.NewScheduler()
	small := New(sched)
	sw := core.New(core.Config{Name: "lone"}, core.EventDriven(), sched)
	sw.MustLoad(pingPong())
	small.AddSwitch(sw)
	h := small.NewHost("h", packet.IP4(10, 9, 0, 1))
	small.Attach(h, sw, 0, 0)

	d := checkpoint.NewDecoder(e.Bytes())
	small.Restore(d)
	if d.Err() == nil {
		t.Fatal("restore into a different topology did not fail")
	}
}

// TestCheckpointFramesInFlight cuts a snapshot while frames are in
// flight on unimpaired host links and on an impaired trunk, whose
// dropped, duplicated and delayed copies arrive out of send order. Each
// in-flight frame is snapshotted with its (arrival, link, seq) wire key
// and restored as its own flight, so the resumed run must match the
// uninterrupted one on every observable and deliver every frame at the
// same instant.
func TestCheckpointFramesInFlight(t *testing.T) {
	const half, full = sim.Millisecond, 2500 * sim.Microsecond

	a := buildNetRigWith(t, true, 5*sim.Microsecond, true)
	a.sched.Run(half)
	var hostFrames int
	scattered := false
	for l, lf := range a.net.inFlight() {
		for dir := 0; dir < 2; dir++ {
			if l.impair == nil {
				hostFrames += len(lf[dir])
				continue
			}
			// lf is in send order; an earlier-sent copy arriving later
			// means the impairment scattered the arrival times.
			for i := 1; i < len(lf[dir]); i++ {
				if lf[dir][i].at < lf[dir][i-1].at {
					scattered = true
				}
			}
		}
	}
	if hostFrames == 0 || !scattered {
		t.Fatalf("cut is vacuous: %d frames in flight on unimpaired links, impaired trunk scattered=%v",
			hostFrames, scattered)
	}
	snap := a.snapshot()
	aRx := logDeliveries(a)
	a.sched.Run(full)
	want := a.fingerprint()

	b := buildNetRigWith(t, false, 5*sim.Microsecond, true)
	b.restore(t, snap)
	bRx := logDeliveries(b)
	b.sched.Run(full)
	if got := b.fingerprint(); got != want {
		t.Errorf("resume with frames in flight diverges:\n--- uninterrupted ---\n%s--- resumed ---\n%s", want, got)
	}
	if len(*aRx) == 0 || len(*aRx) != len(*bRx) {
		t.Fatalf("delivered %d frames after the cut uninterrupted, %d resumed", len(*aRx), len(*bRx))
	}
	for i := range *aRx {
		if (*aRx)[i] != (*bRx)[i] {
			t.Fatalf("delivery %d after the cut: uninterrupted %s, resumed %s", i, (*aRx)[i], (*bRx)[i])
		}
	}
	if tr := a.net.Links()[2]; tr.Dropped() == 0 || tr.Duplicated() == 0 {
		t.Fatalf("trunk impairment never dropped (%d) or duplicated (%d)", tr.Dropped(), tr.Duplicated())
	}
}

// logDeliveries records every frame the rig's hosts receive from now on,
// with the receiving host and instant.
func logDeliveries(r *netRig) *[]string {
	var log []string
	for _, h := range r.hosts {
		h := h
		h.OnRecv = func(d []byte) {
			log = append(log, fmt.Sprintf("%s@%v/%dB", h.Name, r.sched.Now(), len(d)))
		}
	}
	return &log
}
