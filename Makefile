GO ?= go

.PHONY: all check fmt vet build test race bench chaos fuzzsmoke conform conformguard sweepbench profbench servebench kernelbench scalebench servesmoke tracesmoke benchdiff baseline docscheck ledgersmoke clean

all: check

# check runs the full verification gate: formatting, static analysis,
# build, package-doc coverage and the dead-export gate, the race-enabled
# test suite, the chaos (fault-injection) suite, a fuzz smoke pass over
# the fault-plan, traceparent and job-spec parsers, the simulator
# conformance suite, the emu-coverage guard, the sweep, profiler,
# job-server and fused-kernel throughput measurements, the benchmark
# regression diff against the committed baselines, and the sarserve
# end-to-end and request-tracing smoke tests.
check: fmt vet build docscheck race chaos fuzzsmoke conform conformguard sweepbench profbench servebench kernelbench scalebench benchdiff servesmoke tracesmoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# chaos runs the fault-injection suite under the race detector: the
# deterministic injector unit tests, the golden chaos kernel runs with
# pinned retry/remap counts, the fault conformance and tamper-detection
# tests, and the CLI exit-code contract tests.
chaos:
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 -run 'Chaos|Fault|EmptyPlan' \
		./internal/emu ./internal/kernels ./internal/conform \
		./cmd/epirun

# fuzzsmoke gives the fault-plan parser, the traceparent header parser
# and the job-spec decode and checks a short fuzzing budget each, on top
# of replaying their committed corpora.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzParsePlan -fuzztime 10s ./internal/fault
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime 5s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzJobSpec -fuzztime 5s ./internal/serve

# conform runs the simulator conformance harness under the race detector:
# the invariant checker over real kernel runs, the analytic differential
# microbenchmarks (exact closed-form cycle counts), and the seeded
# random-program determinism suite.
conform:
	$(GO) test -race -count=1 ./internal/conform

# conformguard fails when emulator model code changes without a
# conformance or emu test riding along (range: CONFORM_RANGE, default
# HEAD~1..HEAD).
conformguard:
	./scripts/checkconform.sh

# sweepbench exercises the concurrent sweep engine under the race
# detector and records its throughput as out/BENCH_sweep.json.
sweepbench:
	SWEEPBENCH_OUT=$(CURDIR)/out $(GO) test -race -run TestSweep -count=1 ./internal/sweep

# profbench runs the trace-driven profiler over a traced 16-core FFBP
# run and records its throughput as out/BENCH_profile.json.
profbench:
	PROFBENCH_OUT=$(CURDIR)/out $(GO) test -race -run TestProfile -count=1 ./internal/profile

# servebench measures the job server's saturation behavior (three
# offered loads plus a warm-cache rerun) under the race detector and
# records it as out/BENCH_serve.json.
servebench:
	SERVEBENCH_OUT=$(CURDIR)/out $(GO) test -race -run TestServeSaturation -count=1 ./internal/serve

# kernelbench measures the fused back-projection hot paths against their
# retained references at paper scale and records the result as
# out/BENCH_kernels.json. It runs without the race detector on purpose:
# the envelope's pixels/sec leaves are per-core throughput measurements
# and -race would distort them several-fold. The fused paths' correctness
# under -race is covered by the equivalence suites in the gbp and ffbp
# packages, which `race` already runs.
kernelbench:
	KERNELBENCH_OUT=$(CURDIR)/out $(GO) test -run TestKernelThroughput -count=1 ./internal/bench

# scalebench runs both parallel kernels across the 64-, 256- and
# 1024-core device generations (the last a 2x2 eLink-bridged chip array)
# and records modeled time, speedup and energy as out/BENCH_scale.json.
# Every leaf is deterministic simulator output, so the whole envelope
# gates in benchdiff. It runs without the race detector: the sweep is
# pure simulation whose -race coverage lives in the kernels and conform
# suites, and -race would multiply the 1024-core run's wall-clock.
scalebench:
	SCALEBENCH_OUT=$(CURDIR)/out $(GO) test -run TestScaleBench -count=1 ./internal/bench

# servesmoke is the sarserve end-to-end contract: build the daemon,
# submit a real job over HTTP (must answer 200 done), assert the run
# ledger recorded it, and SIGTERM must drain cleanly.
servesmoke:
	./scripts/servesmoke.sh

# tracesmoke is the request-tracing contract: a live sarserve submission
# must answer with a trace ID, and `sarlog trace <id>` must render a
# span tree covering admission, queue wait, execution and the ledger
# write.
tracesmoke:
	./scripts/tracesmoke.sh

# benchdiff gates the envelopes recorded by sweepbench/profbench against
# the committed baselines. Modeled simulator output (cycles, span and
# segment counts, job counts) must stay within the tolerance; wall-clock
# and host-shape fields legitimately vary between machines and are
# advisory — printed when they move, never a failure.
BENCHDIFF_ADVISORY := data.seconds*,data.speedup,data.*_per_sec,data.host_cpus,data.analyze_seconds

# The serve envelope additionally treats wall-clock latency quantiles
# as advisory; its job accounting (completed/executed/cache-hit counts
# and ratios) is deterministic and gates.
SERVEDIFF_ADVISORY := $(BENCHDIFF_ADVISORY),data.*p50_seconds,data.*p99_seconds,data.*jobs_per_sec

# The kernels envelope is wall-clock throughput end to end, so every
# seconds/speedup leaf (including the nested per-merge-stage ones) is
# advisory; its deterministic leaves — gbp_equiv_ok, bit_identical and
# the shape counts — gate.
KERNELDIFF_ADVISORY := $(BENCHDIFF_ADVISORY),data.*seconds*,data.*speedup*

benchdiff:
	$(GO) run ./scripts/benchdiff.go -tol 0.02 -advisory '$(BENCHDIFF_ADVISORY)' \
		BENCH_sweep.json out/BENCH_sweep.json
	$(GO) run ./scripts/benchdiff.go -tol 0.02 -advisory '$(BENCHDIFF_ADVISORY)' \
		BENCH_profile.json out/BENCH_profile.json
	$(GO) run ./scripts/benchdiff.go -tol 0.02 -advisory '$(SERVEDIFF_ADVISORY)' \
		BENCH_serve.json out/BENCH_serve.json
	$(GO) run ./scripts/benchdiff.go -tol 0.02 -advisory '$(KERNELDIFF_ADVISORY)' \
		BENCH_kernels.json out/BENCH_kernels.json
	$(GO) run ./scripts/benchdiff.go -tol 0.02 -advisory '$(BENCHDIFF_ADVISORY)' \
		BENCH_scale.json out/BENCH_scale.json

# baseline refreshes the committed envelopes from freshly recorded runs.
# Use after an intentional change to modeled results, then commit the
# updated BENCH_*.json files.
baseline: sweepbench profbench servebench kernelbench scalebench
	cp out/BENCH_sweep.json BENCH_sweep.json
	cp out/BENCH_profile.json BENCH_profile.json
	cp out/BENCH_serve.json BENCH_serve.json
	cp out/BENCH_kernels.json BENCH_kernels.json
	cp out/BENCH_scale.json BENCH_scale.json

# docscheck fails when any package (cmd/ binaries included) lacks a doc
# comment, when the serving layer exports an undocumented identifier, or
# when an exported identifier under internal/ has no non-test caller and
# no entry in scripts/checkdead/allow.txt.
docscheck:
	./scripts/checkdocs.sh

# ledgersmoke is the determinism contract of the run ledger end to end:
# two identical epirun invocations must record manifests whose every
# cycle and energy leaf agrees exactly (sarlog diff -gate exits 0), with
# the advisory id/start rows proving the delta table was not empty.
ledgersmoke:
	rm -rf out/ledgersmoke
	$(GO) run ./cmd/epirun -kernel ffbp-par -small -ledger out/ledgersmoke
	$(GO) run ./cmd/epirun -kernel ffbp-par -small -ledger out/ledgersmoke
	$(GO) run ./cmd/sarlog diff -dir out/ledgersmoke -gate @-2 @-1 > out/ledgersmoke.diff; \
		status=$$?; cat out/ledgersmoke.diff; exit $$status
	@grep -q '(advisory)' out/ledgersmoke.diff || \
		{ echo "ledgersmoke: delta table empty"; exit 1; }
	@grep -q ' 0 regressions' out/ledgersmoke.diff || \
		{ echo "ledgersmoke: non-advisory divergence between identical runs"; exit 1; }

clean:
	rm -rf out
