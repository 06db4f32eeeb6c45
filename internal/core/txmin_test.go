package core

import (
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/events"
	"repro/internal/packet"
	"repro/internal/pisa"
	"repro/internal/sim"
)

// scanAuxMin is the reference conveyor minimum: the pipe head against a
// full scan of every port's pending tx completion.
func scanAuxMin(s *Switch) (at sim.Time, seq uint64, txPort int, ok bool) {
	txPort = -1
	if s.pipeHead < len(s.pipeQ) {
		e := &s.pipeQ[s.pipeHead]
		at, seq, ok = e.at, e.seq, true
	}
	for p, pend := range s.txDonePend {
		if pend && (!ok || s.txDoneAt[p] < at || (s.txDoneAt[p] == at && s.txDoneSeq[p] < seq)) {
			at, seq, txPort, ok = s.txDoneAt[p], s.txDoneSeq[p], p, true
		}
	}
	return at, seq, txPort, ok
}

func txMinSwitch(sched *sim.Scheduler) *Switch {
	sw := New(Config{Name: "txmin", Ports: 8}, EventDriven(), sched)
	p := pisa.NewProgram("sink")
	p.HandleFunc(events.IngressPacket, func(ctx *pisa.Context) {})
	sw.MustLoad(p)
	return sw
}

// TestSwitchTxMinMatchesScan drives one 8-port switch's conveyor
// directly — frames of random (often equal) sizes started on random
// ports, pipeline-latency entries, link flaps that send queued frames
// down pump's link-down drop path, conveyor entries fired by the
// scheduler through the aux lane — and after every pump and every fire
// requires auxMin (the cached txMin) to equal a full scan, and the aux
// lane to sit at that minimum. Frames started at one instant with one
// size complete at equal times, so ties are broken by seq. Mid-flight
// snapshots restored into a fresh switch must report the same minimum.
func TestSwitchTxMinMatchesScan(t *testing.T) {
	sched := sim.NewScheduler()
	sw := txMinSwitch(sched)
	rng := rand.New(rand.NewSource(3))
	sizes := []int{64, 64, 128, 128, 700, 1500}
	check := func(step int, what string) {
		t.Helper()
		gotAt, gotSeq, gotPort, gotOK := sw.auxMin()
		at, seq, port, ok := scanAuxMin(sw)
		if gotAt != at || gotSeq != seq || gotPort != port || gotOK != ok {
			t.Fatalf("step %d, after %s: auxMin = (%v, %d, port %d, %v), scan = (%v, %d, port %d, %v)",
				step, what, gotAt, gotSeq, gotPort, gotOK, at, seq, port, ok)
		}
		lat, lseq, armed := sw.auxLane.ArmedAt()
		if armed != ok || (ok && (lat != at || lseq != seq)) {
			t.Fatalf("step %d, after %s: aux lane at (%v, %d, %v), conveyor minimum (%v, %d, %v)",
				step, what, lat, lseq, armed, at, seq, ok)
		}
	}
	var ties, drops, fires, restores int
	sw.OnDrop = func(_ *packet.Packet, reason string) {
		if reason == "link-down" {
			drops++
		}
	}
	for step := 0; step < 20000; step++ {
		port := rng.Intn(8)
		switch r := rng.Intn(20); {
		case r < 7:
			// Start frames: TM enqueue plus pump, several at this instant.
			for n := 1 + rng.Intn(3); n > 0; n-- {
				pkt := sw.pool.GetCopy(frame(sizes[rng.Intn(len(sizes))], 1, 2), -1)
				sw.enqueueOut(pkt, port, 0, 0, 0)
				check(step, "pump")
				port = rng.Intn(8)
			}
		case r < 9:
			pkt := sw.pool.GetCopy(frame(sizes[rng.Intn(len(sizes))], 1, 2), -1)
			sw.enqueueOutDelayed(pkt, port, 0, 0, 0)
			check(step, "pipeline entry")
		case r < 10:
			sw.SetLink(port, !sw.LinkIsUp(port))
			check(step, "link change")
		case r < 13:
			// Let time pass, but never up to the conveyor minimum: the
			// aux lane is the only thing scheduled, so nothing fires.
			if at, _, _, ok := sw.auxMin(); ok && at > sched.Now() {
				sched.Run(sched.Now() + sim.Time(rng.Int63n(int64(at-sched.Now()))))
			}
		case r < 14 && restores < 40:
			e := checkpoint.NewEncoder()
			sw.Snapshot(e)
			fresh := txMinSwitch(sim.NewScheduler())
			d := checkpoint.NewDecoder(e.Bytes())
			fresh.Restore(d)
			if err := d.Err(); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
			gotAt, gotSeq, gotPort, gotOK := fresh.auxMin()
			at, seq, p, ok := scanAuxMin(sw)
			if gotAt != at || gotSeq != seq || gotPort != p || gotOK != ok {
				t.Fatalf("step %d: restored auxMin = (%v, %d, port %d, %v), original scan = (%v, %d, port %d, %v)",
					step, gotAt, gotSeq, gotPort, gotOK, at, seq, p, ok)
			}
			restores++
		default:
			at, seq, txPort, ok := sw.auxMin()
			if !ok {
				break
			}
			if txPort >= 0 {
				for q := range sw.txDonePend {
					if q != txPort && sw.txDonePend[q] && sw.txDoneAt[q] == at && sw.txDoneSeq[q] > seq {
						ties++
						break
					}
				}
			}
			// The aux lane is armed at the minimum, so the scheduler's
			// next dispatch is exactly that entry.
			if !sched.Step() || sched.Now() != at {
				t.Fatalf("step %d: scheduler did not fire the conveyor minimum at %v (now %v)", step, at, sched.Now())
			}
			fires++
			check(step, "fire")
		}
	}
	if ties == 0 || drops == 0 || fires == 0 || restores == 0 {
		t.Fatalf("sequence left a path uncovered: %d seq-broken ties, %d link-down drops, %d fires, %d restores",
			ties, drops, fires, restores)
	}
}
