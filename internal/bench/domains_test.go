package bench

import (
	"testing"

	"repro/internal/sim"
)

// withDomains runs fn with the partition-domain knob pinned to n,
// restoring the previous setting afterwards.
func withDomains(n int, fn func()) {
	prev := Domains()
	SetDomains(n)
	defer SetDomains(prev)
	fn()
}

// TestDomainDeterminism is the parallel engine's acceptance check at the
// experiment level: every domain-aware experiment renders byte-identical
// output at 1, 2, and 4 partition domains. The topologies differ (leaf-
// spine fabric, FRR diamond under a flap storm, replication chain), so
// together they cover cross-domain data traffic, scheduled link changes,
// and multi-hop request/reply paths.
func TestDomainDeterminism(t *testing.T) {
	for _, id := range []string{"hula", "resilience", "netchain"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		var base string
		withDomains(1, func() { base = e.Run().String() })
		for _, n := range []int{2, 4} {
			var got string
			withDomains(n, func() { got = e.Run().String() })
			if got != base {
				t.Errorf("%s: -domains %d diverges from -domains 1:\n--- domains=1 ---\n%s\n--- domains=%d ---\n%s",
					id, n, base, n, got)
			}
		}
	}
}

// TestScaleDigestsMatch runs the scale sweep and checks its built-in
// self-check: every multi-domain row's digest equals the 1-domain
// baseline for the same fabric.
func TestScaleDigestsMatch(t *testing.T) {
	res := ScaleBench()
	for _, row := range res.Rows {
		if row[len(row)-1] == "NO" {
			t.Errorf("digest mismatch in scale row %v", row)
		}
	}
	if len(res.Perf) != len(res.Rows) {
		t.Errorf("perf samples = %d, want %d (one per row)", len(res.Perf), len(res.Rows))
	}
	// The latency-diverse fat trees are where adaptive batching must pay:
	// their widest adaptive sample records the classic twin's barrier
	// count against its own.
	for _, label := range []string{"ft4", "ft8"} {
		found := false
		for _, s := range res.Perf {
			if s.Label == label && s.Domains == 4 && s.BarrierReduction > 0 {
				found = true
				if s.BarrierReduction < 2 {
					t.Errorf("%s d4 barrier reduction = %.2fx, want >= 2x over classic fixed-width windows", label, s.BarrierReduction)
				}
			}
		}
		if !found {
			t.Errorf("%s: no adaptive d4 sample with barrier_reduction recorded", label)
		}
	}
	// Perf samples are host-dependent and must not leak into the
	// rendered table: stripping them changes nothing.
	withPerf := res.String()
	res.Perf = nil
	if res.String() != withPerf {
		t.Error("Result.String renders Perf samples")
	}
}

// TestFatTreeScaleSmoke is the reduced fat-tree digest check behind
// `make scale-smoke`: a short k=4 run (4 full epoch rotations) whose
// digest must be identical at 1 and 4 domains, with adaptive batching
// and with the classic fixed-width oracle. Small enough to run under
// the race detector on every `make check`.
func TestFatTreeScaleSmoke(t *testing.T) {
	spec := fatTreeSpec{
		k: 4, horizon: 4 * sim.Millisecond, slot: 250 * sim.Microsecond,
		hostRate: 1120 * sim.Mbps, interGap: 150 * sim.Microsecond,
	}
	spec.domains = 1
	base := runFatTree(spec)
	for _, cfg := range []struct {
		label   string
		domains int
		classic bool
	}{
		{"d4 adaptive", 4, false},
		{"d4 classic", 4, true},
	} {
		s := spec
		s.domains, s.classic = cfg.domains, cfg.classic
		if got := runFatTree(s); got.ident() != base.ident() {
			t.Errorf("%s digest %016x != d1 digest %016x", cfg.label, got.digest, base.digest)
		}
	}
}

// TestSetDomainsClamps verifies values below 1 are clamped.
func TestSetDomainsClamps(t *testing.T) {
	prev := Domains()
	defer SetDomains(prev)
	SetDomains(0)
	if got := Domains(); got != 1 {
		t.Errorf("Domains after SetDomains(0) = %d, want 1", got)
	}
}
