GO ?= go

.PHONY: check vet lint build test perfbench-test race fuzz bench evbench bench-json bench-smoke bench-diff check-backends telemetry-smoke crash-smoke obs-smoke scale-smoke

# The gate everything must pass: static checks, a full build, the test
# suite, the concurrency-sensitive packages (parallel experiment
# harness, partitioned engine, fault injection) under the race detector,
# an end-to-end telemetry export check, the µP4 backend differential
# check, the crash-injection checkpoint/restore harness, the observability-plane read-only check,
# the fat-tree partitioned-digest smoke, the repository benchmark's own
# tests, and a perf regression diff against the committed baseline.
check: lint build test perfbench-test race telemetry-smoke check-backends crash-smoke obs-smoke scale-smoke bench-diff

vet:
	$(GO) vet ./...

# Static analysis: go vet and a gofmt check (fails when any Go file
# needs formatting) always; staticcheck when installed (the CI image may
# not ship it — that part degrades to a notice rather than failing on a
# missing tool).
lint: vet
	@unformatted=$$(gofmt -l cmd internal examples perfbench *.go); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, ran go vet only"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a nested module, so `go test ./...` at the root never
# reaches it: its golden-digest, determinism and metric-name tests run
# here.
perfbench-test:
	cd perfbench && $(GO) test ./...

# The full scale sweep (TestScale*) is excluded here: its k=8 fat tree
# is minutes under the race detector on one core. scale-smoke runs the
# reduced fat tree race-checked instead.
race:
	$(GO) test -race ./internal/bench -run 'TestParallel|TestResilience|TestDomain|TestTelemetry|TestFastForward|TestUP4|TestTrialPanic|TestJournal|TestObs'
	$(GO) test -race ./internal/sim -run 'TestPartition|TestAtWire|TestRunBefore|TestBatched|TestSlimState|TestLaneHeap|TestRestoreArm'
	$(GO) test -race ./internal/netsim -run 'TestPartitioned|TestScheduleLinkChange|TestCrossDomain|TestBurst|TestCheckpointFramesInFlight'
	$(GO) test -race ./internal/core -run 'TestBurst|TestSwitchBurst|TestSwitchTxMin'
	$(GO) test -race ./internal/faults
	$(GO) test -race ./internal/checkpoint
	$(GO) test -race ./internal/telemetry ./internal/telemetry/self ./internal/obs

# Coverage-guided fuzzing: the fault-schedule parser/validator and the
# µP4 compiled-vs-interpreter differential target. Not part of `check`
# (open-ended); run before touching the DSL or the compilation backend.
fuzz:
	$(GO) test -fuzz FuzzParseSchedule -fuzztime 10s ./internal/faults
	$(GO) test -fuzz FuzzCompiledVsInterp -fuzztime 10s ./internal/p4

# Hot-path micro-benchmarks (scheduler, including the lane heap at 8,
# 160 and 640 lanes in BenchmarkSchedulerManyLanes, + switch cycle +
# event queue + netsim frame delivery + traffic manager).
bench:
	$(GO) test -bench 'BenchmarkScheduler|BenchmarkSwitch|BenchmarkQueue|BenchmarkNetsim|BenchmarkEnqueueDequeue|BenchmarkPIFO' -benchmem -run xxx ./internal/sim ./internal/core ./internal/events ./internal/netsim ./internal/tm

# Regenerate every table and figure.
evbench:
	$(GO) run ./cmd/evbench

# Machine-readable perf reports: BENCH_<experiment>.json per experiment
# (wall time, allocations, cycles/s where measured).
bench-json:
	$(GO) run ./cmd/evbench -benchjson .

# Compare BENCH_<id>.json report pairs (override OLD/NEW, OLD2/NEW2):
#   make bench-diff OLD=BENCH_scale.before.json NEW=BENCH_scale.json
# Prints malloc / alloc-bytes / wall / cycles-per-sec deltas (aggregate
# and per perf row) and fails if the deterministic table or telemetry
# digest changed.
OLD ?= BENCH_scale.before.json
NEW ?= BENCH_scale.json
OLD2 ?= BENCH_up4.before.json
NEW2 ?= BENCH_up4.json
bench-diff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW) $(OLD2) $(NEW2)

# Quick cross-check that the partitioned engine changes nothing: every
# experiment's table diffed between -domains 1 and -domains 2.
bench-smoke:
	$(GO) run ./cmd/evbench -domains 1 > /tmp/evbench.d1.txt
	$(GO) run ./cmd/evbench -domains 2 > /tmp/evbench.d2.txt
	diff /tmp/evbench.d1.txt /tmp/evbench.d2.txt && echo "bench-smoke: -domains 1 == -domains 2"

# µP4 backend differential check at the experiment level: every table
# and figure regenerated with compiled closures must be byte-identical
# to the interpreter oracle (-interp).
check-backends:
	$(GO) run ./cmd/evbench > /tmp/evbench.compiled.txt
	$(GO) run ./cmd/evbench -interp > /tmp/evbench.interp.txt
	diff /tmp/evbench.compiled.txt /tmp/evbench.interp.txt && echo "check-backends: compiled == interp"

# Crash-injection differential harness: SIGKILL the real evsim binary
# mid-run at a randomized instant, resume from the surviving checkpoint,
# and require byte-identical statistics (TestCrashSIGKILLResume), plus
# the in-process resume and exit-code pins in the same package.
crash-smoke:
	$(GO) test ./cmd/evsim -run 'TestCrashSIGKILLResume|TestResumeByteIdentical|TestExitCodes' -count 1
	@echo "crash-smoke: SIGKILL + resume is byte-identical"

# Partitioned-scaling smoke: a reduced k=4 fat tree under the race
# detector, digest-diffed between -domains 1 and -domains 4 (adaptive
# and classic fixed-width windows). The fast version of the full scale
# sweep's byte-identity claim.
scale-smoke:
	$(GO) test -race ./internal/bench -run TestFatTreeScaleSmoke -count 1
	@echo "scale-smoke: fat-tree digests identical at -domains 1 and 4"

# End-to-end telemetry check: export trace + metrics from an
# instrumented experiment, schema-validate both with tracecheck, and
# require byte-identical files at -domains 1 and -domains 2.
telemetry-smoke:
	$(GO) run ./cmd/evbench -exp hula -domains 1 -trace /tmp/evtel.d1.jsonl -metrics /tmp/evtel.d1.json > /dev/null
	$(GO) run ./cmd/evbench -exp hula -domains 2 -trace /tmp/evtel.d2.jsonl -metrics /tmp/evtel.d2.json > /dev/null
	$(GO) run ./cmd/tracecheck -trace /tmp/evtel.d1.jsonl -metrics /tmp/evtel.d1.json
	cmp /tmp/evtel.d1.jsonl /tmp/evtel.d2.jsonl
	cmp /tmp/evtel.d1.json /tmp/evtel.d2.json
	@echo "telemetry-smoke: exports valid and -domains 1 == -domains 2"

# Observability-plane read-only check: the scale campaign with the HTTP
# introspection endpoint + streaming telemetry enabled must render a
# byte-identical table to a plain run at -parallel 8 -domains 2, with a
# live mid-run scrape seeing non-zero barrier-stall self-metrics
# (TestObsSmoke), plus the harness-level export-identity
# and streamed-file checks.
obs-smoke:
	$(GO) test ./cmd/evbench -run TestObsSmoke -count 1
	$(GO) test ./internal/bench -run TestObsStreamingIdentical -count 1
	$(GO) test ./cmd/tracecheck -count 1
	@echo "obs-smoke: observability plane is read-only"
