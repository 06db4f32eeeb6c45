package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestExitCodes pins the exit-code contract: 0 ok, 1 runtime failure,
// 2 usage error. The crash harness and CI scripts depend on telling a
// crashed run from a misused one.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	if code := runQuiet(t, "-ms", "1", "-checkpoint-every", "500us", "-checkpoint", ckpt); code != exitOK {
		t.Fatalf("checkpointed run exited %d, want %d", code, exitOK)
	}
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, exitOK},
		{[]string{"-not-a-flag"}, exitUsage},
		{[]string{"-arch", "bogus"}, exitUsage},
		{[]string{"-ms", "0"}, exitUsage},
		{[]string{"-ports", "-2"}, exitUsage},
		{[]string{"-checkpoint-every", "1ms"}, exitUsage},                       // no -checkpoint
		{[]string{"-checkpoint-every", "soon", "-checkpoint", ckpt}, exitUsage}, // bad duration
		{[]string{"-p4", filepath.Join(dir, "missing.up4")}, exitRuntime},       // unreadable program
		{[]string{"-resume", filepath.Join(dir, "missing.ckpt")}, exitRuntime},  // unreadable checkpoint
		{[]string{"-ms", "1", "-load", "0.5", "-resume", ckpt}, exitUsage},      // digest mismatch
		{[]string{"-burst", "0"}, exitUsage},                                    // the per-packet schedule is the only datapath
		{[]string{"-ms", "1", "-checkpoint-every", "500us", "-resume", ckpt}, exitOK},
	}
	for _, c := range cases {
		if got := runQuiet(t, c.args...); got != c.want {
			t.Errorf("run(%v) = %d, want %d", c.args, got, c.want)
		}
	}
}

func runQuiet(t *testing.T, args ...string) int {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	t.Logf("run(%v) -> %d\n%s%s", args, code, out.String(), errw.String())
	return code
}

// TestResumeByteIdenticalInProcess verifies, without any crash, that a
// run resumed from its last checkpoint prints byte-identical statistics
// to the uninterrupted run.
func TestResumeByteIdenticalInProcess(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	flags := []string{"-ms", "4", "-checkpoint-every", "1ms"}

	// The un-checkpointed run pins that checkpointing itself does not
	// perturb the statistics.
	var plain bytes.Buffer
	if code := run([]string{"-ms", "4"}, &plain, &bytes.Buffer{}); code != exitOK {
		t.Fatalf("reference run exited %d", code)
	}
	var first bytes.Buffer
	if code := run(append(append([]string{}, flags...), "-checkpoint", ckpt), &first, &bytes.Buffer{}); code != exitOK {
		t.Fatalf("checkpointed run exited %d", code)
	}
	var resumed bytes.Buffer
	var errw bytes.Buffer
	if code := run(append(append([]string{}, flags...), "-resume", ckpt), &resumed, &errw); code != exitOK {
		t.Fatalf("resumed run exited %d: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "resumed from") {
		t.Errorf("resume did not report its restore point: %q", errw.String())
	}
	if plain.String() != first.String() || first.String() != resumed.String() {
		t.Errorf("outputs diverge:\n--- plain ---\n%s--- checkpointed ---\n%s--- resumed ---\n%s",
			plain.String(), first.String(), resumed.String())
	}
}

// TestPartitionedResumeByteIdentical is the mid-batch checkpoint
// differential: under -domains the checkpointer fires inside domain 0's
// window (between barriers, while other domains' goroutines are live),
// so a resume from such a checkpoint exercises the slim partition
// section. The partitioned run's statistics must match the plain run's
// byte for byte, with and without a resume, and a resume under a
// different -domains value must be refused via the config digest.
func TestPartitionedResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "part.ckpt")
	flags := []string{"-ms", "4", "-domains", "4", "-checkpoint-every", "1ms"}

	var plain bytes.Buffer
	if code := run([]string{"-ms", "4"}, &plain, &bytes.Buffer{}); code != exitOK {
		t.Fatalf("reference run exited %d", code)
	}
	var first bytes.Buffer
	if code := run(append(append([]string{}, flags...), "-checkpoint", ckpt), &first, &bytes.Buffer{}); code != exitOK {
		t.Fatalf("partitioned checkpointed run exited %d", code)
	}
	var resumed, errw bytes.Buffer
	if code := run(append(append([]string{}, flags...), "-resume", ckpt), &resumed, &errw); code != exitOK {
		t.Fatalf("partitioned resumed run exited %d: %s", code, errw.String())
	}
	if plain.String() != first.String() || first.String() != resumed.String() {
		t.Errorf("outputs diverge:\n--- plain ---\n%s--- partitioned ---\n%s--- resumed ---\n%s",
			plain.String(), first.String(), resumed.String())
	}

	// Cross-domain-count resume: refused up front (usage error), exactly
	// like any other behaviour-affecting flag change.
	if code := runQuiet(t, "-ms", "4", "-domains", "2", "-checkpoint-every", "1ms", "-resume", ckpt); code != exitUsage {
		t.Errorf("resume under different -domains exited %d, want %d", code, exitUsage)
	}
	for _, bad := range []string{"0", "-3", "zebra"} {
		if code := runQuiet(t, "-domains", bad); code != exitUsage {
			t.Errorf("-domains %s exited %d, want %d", bad, code, exitUsage)
		}
	}
	if code := runQuiet(t, "-ms", "1", "-domains", "auto"); code != exitOK {
		t.Errorf("-domains auto exited %d, want %d", code, exitOK)
	}
}

// TestCrashSIGKILLResume is the crash-injection differential harness:
// run the real binary with periodic checkpoints, SIGKILL it at a
// randomized instant mid-run, resume from whatever checkpoint survived,
// and require the final statistics to be byte-identical to an
// uninterrupted run with the same flags.
func TestCrashSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "evsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const horizon = "30" // ~2s wall: the kill window below always lands mid-run
	ckpt := filepath.Join(dir, "crash.ckpt")
	// The SIGKILL lands in a run whose checkpoints carry pipeline
	// conveyor entries and in-flight transmissions.
	flags := []string{"-ms", horizon, "-checkpoint-every", "2ms"}

	ref, err := exec.Command(bin, append(append([]string{}, flags...), "-checkpoint", filepath.Join(dir, "ref.ckpt"))...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cmd := exec.Command(bin, append(append([]string{}, flags...), "-checkpoint", ckpt)...)
	var crashOut bytes.Buffer
	cmd.Stdout = &crashOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("no checkpoint appeared within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	delay := time.Duration(rand.Int63n(int64(700 * time.Millisecond)))
	t.Logf("first checkpoint on disk; killing after %v", delay)
	time.Sleep(delay)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("process did not die by SIGKILL (err=%v); the kill window is too slow for this machine", err)
	}

	resume := exec.Command(bin, append(append([]string{}, flags...), "-resume", ckpt)...)
	var resumedOut, resumedErr bytes.Buffer
	resume.Stdout, resume.Stderr = &resumedOut, &resumedErr
	if err := resume.Run(); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, resumedErr.String())
	}
	if !strings.Contains(resumedErr.String(), "resumed from") {
		t.Errorf("resume did not report its restore point: %q", resumedErr.String())
	}
	if got, want := resumedOut.String(), string(ref); got != want {
		t.Errorf("resumed run diverges from uninterrupted run:\n--- uninterrupted ---\n%s--- resumed after SIGKILL ---\n%s", want, got)
	}
	fmt.Fprintf(os.Stderr, "crash harness: killed after %v, resumed at %s\n",
		delay, strings.TrimPrefix(strings.TrimSpace(resumedErr.String()), "evsim: "))
}
