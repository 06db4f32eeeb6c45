package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// childArg is the first argument that makes the binary run one rep and
// report it as JSON instead of running a benchmark invocation.
const childArg = "child"

// Child modes: a timed run with the slice probe, or a set-up without a
// run.
const (
	modeRun   = "run"
	modeSetup = "setup"
)

// repResult is one set-up plus one Network.Run.
type repResult struct {
	Setup    time.Duration
	Phases   phases
	RunWall  time.Duration
	Cycles   uint64
	Digest   uint64
	MaxRSSMB float64
	Slices   []float64 `json:",omitempty"`
	Err      string    `json:",omitempty"`
}

func (r repResult) cyclesPerSec() float64 { return float64(r.Cycles) / r.RunWall.Seconds() }

// runRep sets up w as cfg says and, unless setupOnly, runs it once,
// untraced. A panic or a failed conservation audit is returned as an
// error: it fails this run, never the harness. (A panic inside a
// partition worker goroutine cannot be recovered here; it ends the
// process, which in a child process is again one failed run.)
func runRep(w workloadDef, cfg buildConfig, probe, setupOnly bool) (r repResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	t0 := time.Now()
	in := w.setup(cfg)
	var pr *sliceProbe
	if probe {
		pr = attachProbe(in, w.slices)
	}
	r.Setup, r.Phases = time.Since(t0), in.phases
	if setupOnly {
		return r, nil
	}
	if pr != nil {
		pr.start()
	}
	t1 := time.Now()
	in.net.Run(in.horizon)
	r.RunWall = time.Since(t1)
	if pr != nil {
		r.Slices = pr.finish()
	}
	r.Cycles, r.Digest = in.cycles(), in.digest()
	if rep := faults.Audit(in.net); !rep.OK() {
		return r, fmt.Errorf("audit: %s", rep)
	}
	return r, nil
}

// childRep runs one rep of the named workload in a fresh process of this
// binary and waits for it to exit.
func childRep(name string, cfg buildConfig, mode string) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(exe, childArg, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-horizon-ps", fmt.Sprint(int64(cfg.horizon)), "-mode", mode)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r repResult
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		return r, fmt.Errorf("child %s: %v: %s", mode, runErr, lastLines(stderr.String(), 5))
	}
	if r.Err != "" {
		return r, fmt.Errorf("%s", r.Err)
	}
	return r, runErr
}

// child is the child process's main: one rep, reported as one JSON line.
func child(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload")
	seed := fs.Uint64("seed", 0, "input seed")
	horizon := fs.Int64("horizon-ps", 0, "simulated horizon in picoseconds (0: the workload's own)")
	mode := fs.String("mode", modeRun, "run or setup")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench child: unknown workload %q\n", *name)
		return 2
	}
	r, err := runRep(w, buildConfig{seed: *seed, horizon: sim.Time(*horizon)}, *mode == modeRun, *mode == modeSetup)
	if err != nil {
		r.Err = err.Error()
	}
	r.MaxRSSMB = maxRSSMB()
	b, _ := json.Marshal(r)
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
