package bench

import (
	"testing"

	"repro/internal/p4"
)

// TestUP4BackendsInvariant is the acceptance check for the µP4
// compilation backend at the experiment level: the full rendered up4
// table — every cycle count, tx count, and digest — is byte-identical
// whether the programs execute as compiled closures or under the
// interpreter oracle, at parallelism 8 and 2 partition domains. It
// toggles the global ForceInterpret knob (what `evbench -interp` sets)
// so both sweeps run through the exact production path.
func TestUP4BackendsInvariant(t *testing.T) {
	prevPar := Parallelism()
	SetParallelism(8)
	defer SetParallelism(prevPar)
	withDomains(2, func() {
		compiled := UP4Bench().String()
		p4.ForceInterpret = true
		defer func() { p4.ForceInterpret = false }()
		interp := UP4Bench().String()
		if compiled != interp {
			t.Errorf("up4 table diverges between backends:\n--- compiled ---\n%s\n--- interp ---\n%s",
				compiled, interp)
		}
	})
}

// TestUP4DomainsIdentical checks that each program's chain run is
// byte-identical when the three switches are split across 2 partition
// domains, for both backends — the compiled closures introduce no
// scheduler-order dependence.
func TestUP4DomainsIdentical(t *testing.T) {
	for _, prog := range up4Programs {
		for _, interp := range []bool{false, true} {
			m1 := runUP4Chain(prog, interp, 1)
			m2 := runUP4Chain(prog, interp, 2)
			if m1.digest != m2.digest {
				t.Errorf("%s (interp=%v): domains=2 digest %016x != domains=1 digest %016x",
					prog, interp, m2.digest, m1.digest)
			}
		}
	}
}

// TestUP4RowsSelfCheck runs the experiment once and asserts its built-in
// differential column never reports a divergence, and that every row
// carries exactly one perf sample.
func TestUP4RowsSelfCheck(t *testing.T) {
	res := UP4Bench()
	for _, row := range res.Rows {
		if row[len(row)-1] == "NO" {
			t.Errorf("backend digest mismatch in up4 row %v", row)
		}
	}
	if len(res.Perf) != len(res.Rows) {
		t.Errorf("perf samples = %d, want %d (one per row)", len(res.Perf), len(res.Rows))
	}
}
