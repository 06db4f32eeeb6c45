// Command evbench regenerates the paper's tables and figures from the
// simulator. With no flags it runs every experiment; -exp selects one.
//
//	evbench                          # run everything
//	evbench -exp table3              # just the Table 3 reproduction
//	evbench -experiment resilience   # same flag, long spelling
//	evbench -list                    # list experiment ids
//	evbench -parallel 8              # 8 worker goroutines per experiment
//	evbench -domains 4               # split topologies across 4 partition domains
//	evbench -domains auto            # one domain per core, load-aware switch assignment
//	evbench -interp                  # run µP4 programs under the interpreter oracle
//	evbench -benchjson .             # also write BENCH_<id>.json per experiment
//	evbench -cpuprofile cpu.pprof    # write a CPU profile
//	evbench -memprofile mem.pprof    # write an allocation profile
//	evbench -exp hula -trace t.json -metrics m.json
//	                                 # telemetry: lifecycle trace + metrics export
//	evbench -exp scale -resume scale.journal
//	                                 # campaign resumption: completed trials are
//	                                 # journaled and skipped on the next run
//	evbench -exp scale -http 127.0.0.1:9100
//	                                 # live introspection: /metrics (Prometheus),
//	                                 # /status (JSON), /debug/pprof
//	evbench -exp hula -stream-trace live.jsonl -stream-metrics live-metrics.jsonl
//	                                 # stream telemetry to disk during the run
//	evbench -blockprofile b.pprof -mutexprofile m.pprof
//	                                 # runtime contention profiles
//
// The observability plane (-http, -stream-*) is read-only: tables, BENCH
// json digests, and trace/metrics exports are byte-identical with it on
// or off, at every -parallel and -domains setting.
//
// -trace writes the event-lifecycle trace (Chrome/Perfetto trace-event
// JSON, or JSON lines when the file ends in .jsonl); -metrics writes the
// metrics registry document. Both need -exp (one experiment per export)
// and work for the instrumented experiments (staleness, hula, scale).
//
// -resume names a trial journal (one per experiment): every completed
// trial is appended as it finishes, and a rerun after a crash loads the
// recorded results instead of recomputing them, producing byte-identical
// tables. It needs -exp and composes with -parallel/-domains; it does
// not compose with -trace/-metrics (telemetry is recorded while trials
// execute, so skipped trials would leave holes in the export).
//
// Output is identical for every -parallel and -domains value: trials are
// distributed across workers but result rows are emitted in trial order,
// and partitioned topologies execute byte-identically to single-threaded.
// That extends to telemetry: trace and metrics files are byte-identical
// at any -parallel and -domains setting.
//
// Exit codes: 0 on success, 1 on runtime failure (profile or export
// write errors), 2 on usage errors (unknown experiment, invalid flag
// combinations).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/telemetry"
	"repro/internal/telemetry/self"
)

const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("evbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	exp := fs.String("exp", "", "experiment id to run (default: all)")
	fs.StringVar(exp, "experiment", "", "alias for -exp")
	list := fs.Bool("list", false, "list experiment ids and exit")
	par := fs.Int("parallel", bench.Parallelism(),
		"worker goroutines for experiment trials (0 = GOMAXPROCS)")
	domains := fs.String("domains", "",
		"partition domains for topology experiments (intra-trial parallelism): a count, or \"auto\" for one per core with load-aware switch assignment")
	benchjson := fs.String("benchjson", "",
		"write BENCH_<experiment>.json reports into `dir`")
	cpuprofile := fs.String("cpuprofile", "", "write CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write allocation profile to `file`")
	blockprofile := fs.String("blockprofile", "", "write goroutine blocking profile to `file`")
	mutexprofile := fs.String("mutexprofile", "", "write mutex contention profile to `file`")
	httpAddr := fs.String("http", "",
		"serve the introspection endpoint (/metrics, /status, /debug/pprof) on `addr`")
	streamTrace := fs.String("stream-trace", "",
		"stream trace records incrementally to `file` during the run (.json/.trace = Chrome array, else JSONL); needs -exp")
	streamMetrics := fs.String("stream-metrics", "",
		"stream one metrics-document line per flush to `file` during the run; needs -exp")
	streamEvery := fs.Duration("stream-every", 500*time.Millisecond,
		"wall-clock flush period for -stream-trace/-stream-metrics")
	traceFile := fs.String("trace", "",
		"write the event-lifecycle trace to `file` (.jsonl = JSON lines, else Chrome JSON); needs -exp")
	metricsFile := fs.String("metrics", "",
		"write the telemetry metrics document to `file`; needs -exp")
	interp := fs.Bool("interp", false,
		"execute µP4 programs with the interpreter instead of compiled closures (differential oracle)")
	resume := fs.String("resume", "",
		"journal completed trials in `file` and skip them on rerun; needs -exp")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(out, "%-12s %s\n", e.ID, e.Paper)
		}
		return exitOK
	}

	if *par <= 0 {
		*par = runtime.GOMAXPROCS(0)
	}
	bench.SetParallelism(*par)
	if *domains != "" {
		if err := bench.ParseDomains(*domains); err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitUsage
		}
	}
	p4.ForceInterpret = *interp

	streaming := *streamTrace != "" || *streamMetrics != ""
	telemetryOn := *traceFile != "" || *metricsFile != "" || streaming
	if telemetryOn && *exp == "" {
		fmt.Fprintln(errw, "evbench: -trace/-metrics/-stream-* need -exp (one experiment per export)")
		return exitUsage
	}
	if *resume != "" && *exp == "" {
		fmt.Fprintln(errw, "evbench: -resume needs -exp (one experiment per journal)")
		return exitUsage
	}
	if *resume != "" && telemetryOn {
		fmt.Fprintln(errw, "evbench: -resume does not compose with -trace/-metrics (skipped trials record no telemetry)")
		return exitUsage
	}
	var todo []bench.Experiment
	if *exp != "" {
		e, ok := bench.Get(*exp)
		if !ok {
			fmt.Fprintf(errw, "evbench: unknown experiment %q (try -list)\n", *exp)
			return exitUsage
		}
		todo = []bench.Experiment{e}
	} else {
		todo = bench.All()
	}

	// The observability plane (self-metrics, live collectors, HTTP
	// endpoint, streaming sink) is observation-only: turning any of it on
	// never changes a byte of tables, digests, or trace files (pinned by
	// TestObsStreamingIdentical / TestObsSmoke).
	obsOn := *httpAddr != "" || streaming
	if obsOn {
		self.Enable()
	}
	if telemetryOn {
		bench.EnableTelemetry(telemetry.Options{
			TraceCap:     telemetry.DefaultTraceCap,
			SamplePeriod: telemetry.DefaultSamplePeriod,
			Live:         obsOn,
		})
	}

	var srv *obs.Server
	if *httpAddr != "" {
		var err error
		srv, err = obs.Serve(obs.Options{
			Addr: *httpAddr,
			Runs: bench.TelemetryRuns,
			Status: func() map[string]any {
				return map[string]any{
					"binary":   "evbench",
					"exp":      *exp,
					"parallel": *par,
					"pdomains": bench.DomainsLabel(),
				}
			},
		})
		if err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
		defer srv.Close()
		fmt.Fprintf(errw, "evbench: introspection endpoint on http://%s\n", srv.Addr())
	}

	var sink *telemetry.StreamSink
	if streaming {
		var err error
		sink, err = telemetry.NewStreamSink(telemetry.StreamOptions{
			TracePath:   *streamTrace,
			MetricsPath: *streamMetrics,
			Interval:    *streamEvery,
		})
		if err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
		bench.AttachStreamSink(sink)
		defer bench.AttachStreamSink(nil)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
		defer pprof.StopCPUProfile()
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
	}

	if *resume != "" {
		j, err := bench.OpenJournal(*resume, *exp)
		if err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
		bench.SetJournal(j)
		defer func() {
			bench.SetJournal(nil)
			if hits := j.Hits(); hits > 0 {
				fmt.Fprintf(errw, "evbench: %d trial(s) loaded from %s\n", hits, *resume)
			}
			j.Close()
		}()
	}

	runOne := func(e bench.Experiment) error {
		if *benchjson == "" {
			fmt.Fprintln(out, e.Run().String())
			return nil
		}
		res, rep := bench.RunReport(e)
		fmt.Fprintln(out, res.String())
		path, err := bench.WriteReport(*benchjson, rep)
		if err != nil {
			return err
		}
		fmt.Fprintf(errw, "evbench: wrote %s\n", path)
		return nil
	}
	for _, e := range todo {
		if err := runOne(e); err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
	}

	if sink != nil {
		// Final flush before the post-run exports, so the streamed files
		// cover every record and close cleanly (Chrome array terminator).
		if err := sink.Close(); err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
		if *streamTrace != "" {
			fmt.Fprintf(errw, "evbench: streamed %s\n", *streamTrace)
		}
		if *streamMetrics != "" {
			fmt.Fprintf(errw, "evbench: streamed %s\n", *streamMetrics)
		}
	}

	if *traceFile != "" {
		if err := bench.WriteTelemetryTrace(*traceFile); err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
		fmt.Fprintf(errw, "evbench: wrote %s\n", *traceFile)
	}
	if *metricsFile != "" {
		if err := bench.WriteTelemetryMetrics(*metricsFile); err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
		fmt.Fprintf(errw, "evbench: wrote %s\n", *metricsFile)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
		defer f.Close()
		// A final GC before the heap profile so the allocation picture
		// shows live retention, not garbage awaiting collection.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(errw, "evbench: %v\n", err)
			return exitRuntime
		}
	}
	if err := writeLookupProfile("block", *blockprofile); err != nil {
		fmt.Fprintf(errw, "evbench: %v\n", err)
		return exitRuntime
	}
	if err := writeLookupProfile("mutex", *mutexprofile); err != nil {
		fmt.Fprintf(errw, "evbench: %v\n", err)
		return exitRuntime
	}
	return exitOK
}

// writeLookupProfile writes a named runtime profile (block, mutex) to
// path; a no-op when path is empty.
func writeLookupProfile(name, path string) error {
	if path == "" {
		return nil
	}
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.WriteTo(f, 0)
}
