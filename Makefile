# ConvMeter build & verification entry points. `make ci` is the one
# command that runs everything CI runs, in the same order.

GO       ?= go
FUZZTIME ?= 15s

.PHONY: build vet lint test race fuzz obs-smoke obs-bench bench-snapshot bench-check perf-smoke chaos critpath-smoke dag-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# convlint: the repo's own analyzer suite (see README "Static analysis
# & CI") plus go vet, so `make lint` is the complete static gate.
# Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/convlint ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrent packages (ring all-reduce, parallel bench collector,
# data-parallel trainer, telemetry registry/tracer, ops server under
# ./internal/obs/..., drift monitor) run under the race detector, plus
# the lint package itself — its fixture suites drive the loader and
# analyzers concurrently enough to be worth the coverage.
race:
	$(GO) test -race ./internal/allreduce/... ./internal/bench/... ./internal/train/... ./internal/obs/... ./internal/driftwatch/... ./internal/lint/... ./internal/dagrun/...

# obs-smoke: run real experiments into run directories and validate
# them with cmd/obscheck — catches exposition/trace/drift formatting
# regressions that unit tests on the exporters alone would miss. Four
# stages: (1) the telemetry fixture run, (2) a live ops-server scrape
# under the race detector (concurrent /metrics and /drift requests
# against a running chaos experiment), (3) a slowdown chaos run whose
# drift artefact must report the detection, and a clean run whose
# artefact must not, (4) a clean quick run of every experiment whose
# drift artefact must report no event — offline LOMO sweeps feed no
# drift stream, so only a real change in step times can trip it.
obs-smoke:
	rm -rf .obs-smoke && mkdir -p .obs-smoke
	$(GO) run ./cmd/experiments -run exttrainreal -quick -run-dir .obs-smoke/telemetry > /dev/null
	$(GO) run ./cmd/obscheck .obs-smoke/telemetry
	$(GO) test -race -count=1 -run 'TestRunWithOpsServer' ./cmd/experiments
	$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed 7 -faults-profile slowdown \
		-run-dir .obs-smoke/slow > /dev/null
	$(GO) run ./cmd/obscheck -require-drift .obs-smoke/slow
	$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed 7 -faults-profile none \
		-run-dir .obs-smoke/clean > /dev/null
	$(GO) run ./cmd/obscheck -forbid-drift .obs-smoke/clean
	$(GO) run ./cmd/experiments -run all -quick -run-dir .obs-smoke/all > /dev/null
	$(GO) run ./cmd/obscheck -forbid-drift .obs-smoke/all
	rm -rf .obs-smoke

# obs-bench: exporter and hot-path benchmarks; the Disabled* benchmarks
# must report 0 allocs/op (also asserted by TestDisabledPathZeroAllocs).
obs-bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/obs

# The committed baseline trajectory: BENCH_LAST is the newest
# BENCH_<n>.json (highest n), BENCH_NEXT the one bench-snapshot lands.
BENCH_N    := $(shell ls BENCH_*.json 2>/dev/null | sed 's/[^0-9]//g' | sort -n | tail -1)
BENCH_LAST := BENCH_$(BENCH_N).json
BENCH_NEXT := BENCH_$(shell expr $(or $(BENCH_N),0) + 1).json

# bench-snapshot: advance the perf baseline — run the benchmark suites,
# write the next snapshot in the committed BENCH_<n>.json trajectory
# and validate it with obscheck. The same run is also checked against
# the newest baseline, so a regressed build cannot silently become
# the new normal: fix the regression first, then re-snapshot.
bench-snapshot:
	$(GO) run ./cmd/benchsnap -out $(BENCH_NEXT) -check $(BENCH_LAST)
	$(GO) run ./cmd/obscheck -bench $(BENCH_NEXT)

# bench-check: re-run the suites and fail on a >15% ns/op regression
# against the newest committed baseline, or on any 0-allocs/op
# benchmark that started allocating (the dynamic half of the hotpath
# contract).
bench-check:
	$(GO) run ./cmd/benchsnap -check $(BENCH_LAST)

# perf-smoke: the repo benchmark (perfbench/, its own Go module) must
# build, vet and pass its tests, and a short untraced infer-real run
# must check its outputs: the last line of the run is the JSON result,
# which has to report "correct":true and "failed":0.
perf-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	mkdir -p .bench_build
	bash perfbench/run.sh --workload infer-real --seed 1 --seconds 3 --trace 0 > .bench_build/perf-smoke.txt
	@last=$$(tail -n 1 .bench_build/perf-smoke.txt); echo "$$last" | cut -c1-120; \
	case "$$last" in *'"correct":true,'*'"failed":0,'*) ;; \
	*) echo "perf-smoke: infer-real run did not report correct with 0 failed operations"; exit 1;; esac

# critpath-smoke: the distributed-tracing acceptance path. First the
# blame chaos suite under the race detector (seeded straggler must be
# deterministically blamed on both transports, clean seed must blame no
# one), then end-to-end: a slowdown chaos run (persistent straggler on
# worker 0) must export a critical-path report blaming worker 0 and a
# well-formed multi-worker trace (resolvable span parents, no negative
# durations, no cross-worker time-travel), and the clean run's report
# must blame nobody.
critpath-smoke:
	$(GO) test -race -count=1 -run 'TestCritpath' ./internal/train
	rm -rf .critpath-smoke && mkdir -p .critpath-smoke
	$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed 7 -faults-profile slowdown \
		-run-dir .critpath-smoke/slow > /dev/null
	$(GO) run ./cmd/obscheck -require-blame 0 .critpath-smoke/slow
	$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed 7 -faults-profile none \
		-run-dir .critpath-smoke/clean > /dev/null
	$(GO) run ./cmd/obscheck -forbid-blame .critpath-smoke/clean
	rm -rf .critpath-smoke

# Short fuzz smoke of every fuzz target; seed corpora live under the
# packages' testdata/fuzz/ directories and always run as part of `test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) ./internal/bench
	$(GO) test -run '^$$' -fuzz FuzzGraphJSON -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzParseConfig -fuzztime $(FUZZTIME) ./internal/lint
	$(GO) test -run '^$$' -fuzz FuzzParseManifest -fuzztime $(FUZZTIME) ./internal/dagrun
	$(GO) test -run '^$$' -fuzz FuzzConv2d -fuzztime $(FUZZTIME) ./internal/exec

# chaos: the fault-injection suites under the race detector, then a
# fixed seed matrix of real end-to-end chaos runs (resilient training
# under crashes, drops and corruption) validated with
# obscheck -require-faults, which fails if no fault was injected.
CHAOS_SEEDS ?= 1 7 42
chaos:
	$(GO) test -race ./internal/faults/... ./internal/allreduce/... ./internal/train/... ./internal/experiments/...
	rm -rf .chaos-smoke && mkdir -p .chaos-smoke
	for seed in $(CHAOS_SEEDS); do \
		$(GO) run ./cmd/experiments -run exttrainfaults -quick -faults-seed $$seed \
			-run-dir .chaos-smoke/$$seed > /dev/null || exit 1; \
		$(GO) run ./cmd/obscheck -require-faults .chaos-smoke/$$seed || exit 1; \
	done
	rm -rf .chaos-smoke

# dag-smoke: the crash-resume acceptance path. First the resume
# matrices under the race detector (every node boundary and mid-node
# point, clean seed and chaos profile, resumed stats bit-identical),
# then end-to-end through the real binary: an uninterrupted chaos run,
# a -dag-crash run that must die with exit code 3 after committing its
# upstream manifests, a resume over the same -run-dir whose report must
# be byte-identical to the uninterrupted run's, and obscheck validating
# the resumed run directory, manifest chain included.
dag-smoke:
	$(GO) test -race -count=1 -run 'TestCrashResumeMatrix|TestDagResumeMatrix|TestRunDagCrashResume' ./internal/dagrun ./internal/experiments ./cmd/experiments
	rm -rf .dag-smoke && mkdir -p .dag-smoke
	$(GO) build -o .dag-smoke/experiments ./cmd/experiments
	.dag-smoke/experiments -run exttrainfaults -quick -seed 5 -faults-seed 11 \
		-run-dir .dag-smoke/clean > /dev/null
	.dag-smoke/experiments -run exttrainfaults -quick -seed 5 -faults-seed 11 \
		-run-dir .dag-smoke/run -dag-crash report@boundary > /dev/null 2> .dag-smoke/crashed.txt; \
		test $$? -eq 3 || { echo "dag-smoke: crash run must exit 3"; exit 1; }
	.dag-smoke/experiments -run exttrainfaults -quick -seed 5 -faults-seed 11 \
		-run-dir .dag-smoke/run > /dev/null
	cmp .dag-smoke/clean/report.txt .dag-smoke/run/report.txt
	$(GO) run ./cmd/obscheck .dag-smoke/run
	rm -rf .dag-smoke

ci: build vet lint test race obs-smoke chaos critpath-smoke dag-smoke perf-smoke bench-check
