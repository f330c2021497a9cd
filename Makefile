# Tier-1+ verification gate. `make check` is the bar every change must
# clear before merging: vet, full build, and the test suite under the
# race detector.

GO ?= go

# Minimum total test coverage (percent) enforced by `make cover`.
COVER_MIN ?= 70

# How long each fuzz target runs in `make fuzz-smoke`.
FUZZTIME ?= 10s

.PHONY: check vet build test test-race bench bench-json bench-smoke sweep-bench sweep-smoke chaos-smoke xval-smoke shard-smoke shard-bench arena-smoke sample-smoke sample-bench quick cover fuzz-smoke

# Minimum statement coverage (percent) for internal/analytic, enforced by
# `make xval-smoke`: the closed-form tier is only trustworthy while its
# invariant and error-envelope tests actually exercise it.
ANALYTIC_COVER_MIN ?= 80

# Label recorded for a `make bench-json` run inside BENCH_FILE.
BENCH_LABEL ?= local
# Trajectory file bench-json appends to (committed: the PR's before/after).
BENCH_FILE ?= BENCH_PR4.json

# Sweep settings for sweep-bench / sweep-smoke: small enough for CI,
# large enough that a cache hit is clearly cheaper than a simulation.
SWEEP_EXPS ?= fig2,fig5,fig10,fig16
SWEEP_INSTR ?= 200000
SWEEP_WORKLOADS ?= w09,w16,w19

check: vet build test-race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# quick runs the short suite only (skips the simulation-heavy tests).
quick:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem

# bench-json runs the full suite once per benchmark and records ns/op,
# B/op, allocs/op and every custom metric into $(BENCH_FILE) under
# $(BENCH_LABEL). Re-running with the same label replaces that run, so the
# committed trajectory stays one-entry-per-milestone.
bench-json:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' | \
		bin/benchjson -label $(BENCH_LABEL) -o $(BENCH_FILE)

# bench-smoke is the CI guard: every benchmark must still run to
# completion (one iteration, no timing assertions).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# sweep-bench records the planner's trajectory into $(BENCH_FILE): a
# cache-disabled baseline (the honest end-to-end cost), a cold planned
# sweep into a fresh cache directory, and a warm re-run served entirely
# from disk. Reports go to /dev/null — only the timings matter here.
sweep-bench:
	$(GO) build -o bin/professbench ./cmd/professbench
	$(GO) build -o bin/benchjson ./cmd/benchjson
	rm -rf bin/sweepcache && mkdir -p bin/sweepcache
	bin/professbench -exp $(SWEEP_EXPS) -instr $(SWEEP_INSTR) -workloads $(SWEEP_WORKLOADS) \
		-nocache -cachedir off -benchout bin/sweep-nocache.txt > /dev/null
	bin/benchjson -label sweep-nocache -o $(BENCH_FILE) < bin/sweep-nocache.txt
	bin/professbench -exp $(SWEEP_EXPS) -instr $(SWEEP_INSTR) -workloads $(SWEEP_WORKLOADS) \
		-cachedir bin/sweepcache -benchout bin/sweep-cold.txt > /dev/null
	bin/benchjson -label sweep-cold -o $(BENCH_FILE) < bin/sweep-cold.txt
	bin/professbench -exp $(SWEEP_EXPS) -instr $(SWEEP_INSTR) -workloads $(SWEEP_WORKLOADS) \
		-cachedir bin/sweepcache -benchout bin/sweep-warm.txt > /dev/null
	bin/benchjson -label sweep-warm -o $(BENCH_FILE) < bin/sweep-warm.txt

# sweep-smoke is the CI guard for the persistent run cache: one sweep
# runs twice against one cache directory in separate processes. The warm
# pass must be >=90% cache hits and its report byte-identical to the
# cold pass; the cold/warm wall times print for the job summary.
sweep-smoke:
	$(GO) build -o bin/professbench ./cmd/professbench
	rm -rf bin/smokecache && mkdir -p bin/smokecache
	bin/professbench -exp $(SWEEP_EXPS) -instr $(SWEEP_INSTR) -workloads $(SWEEP_WORKLOADS) \
		-cachedir bin/smokecache -benchout bin/smoke-cold.txt > bin/smoke-cold.out
	bin/professbench -exp $(SWEEP_EXPS) -instr $(SWEEP_INSTR) -workloads $(SWEEP_WORKLOADS) \
		-cachedir bin/smokecache -benchout bin/smoke-warm.txt > bin/smoke-warm.out
	cmp bin/smoke-cold.out bin/smoke-warm.out
	@awk '/^BenchmarkExp\/total / { rate = -1; \
		for (i = 1; i < NF; i++) if ($$(i+1) == "hit-rate-%") rate = $$i; \
		printf "warm sweep hit rate: %s%%\n", rate; \
		if (rate + 0 < 90) { print "run-cache hit rate below 90%"; exit 1 } }' bin/smoke-warm.txt
	@awk '/^BenchmarkExp\/total /{printf "cold sweep: %.2fs\n", $$3 / 1e9}' bin/smoke-cold.txt
	@awk '/^BenchmarkExp\/total /{printf "warm sweep: %.2fs\n", $$3 / 1e9}' bin/smoke-warm.txt

# chaos-smoke is the CI guard for crash-safe sweeps. It runs the kill -9
# chaos harness plus the cancellation/retry/multi-process-write tests
# under the race detector, and the expired-lease takeover race 300 times
# (exactly one of eight claimants may win), then drives a real
# professbench sweep:
# interrupted with SIGINT mid-execute (must drain and exit 130, or 0 if
# it finished first) and resumed to completion against the same cache
# directory. The gate: the cache directory ends with zero lease files,
# zero takeover temporaries and zero atomic-write temp files.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos|TestExecuteCancelLeavesResumableJournal|TestExecuteRetriesTransientFailures|TestExecuteExhaustsAttempts|TestDiskCacheMultiProcessWrites|TestDiskCacheSweepsTmpOrphans' .
	$(GO) test -race -count=300 -run 'TestExpiredTakeoverRace' ./internal/lease
	$(GO) build -o bin/professbench ./cmd/professbench
	rm -rf bin/chaoscache && mkdir -p bin/chaoscache
	timeout --preserve-status -s INT 2 bin/professbench -exp fig10 -instr 3000000 -workloads w09 \
		-cachedir bin/chaoscache > /dev/null; status=$$?; \
	if [ $$status -ne 130 ] && [ $$status -ne 0 ]; then \
		echo "interrupted sweep exited $$status, want 130 (drained) or 0 (finished early)"; exit 1; fi
	bin/professbench -exp fig10 -instr 3000000 -workloads w09 -cachedir bin/chaoscache > /dev/null
	@leaks=$$(find bin/chaoscache \( -name '*.lease' -o -name '*.lease.reap-*' -o -name '.tmp-*' \) | wc -l); \
	if [ $$leaks -ne 0 ]; then \
		echo "leaked lease/temp files:"; \
		find bin/chaoscache \( -name '*.lease' -o -name '*.lease.reap-*' -o -name '.tmp-*' \); exit 1; fi; \
	echo "chaos smoke: no leaked lease or temp files"

# shard-smoke is the CI guard for the clustered runner (each cluster run on
# its own, then to the fleet stop cycle, on -shards worker goroutines).
# Under the race detector it runs the Scale16 goldens, the cluster
# independence contract (every cluster matches its standalone run), the
# fixed-seed worker-count sweep (byte-identical Result JSON and telemetry
# for shards 1/2/4/8), arena reuse of the cluster machines and the
# run-cache shard invariance; then a real professim scale16 run at 1 and
# 8 shards (cache off, so both simulate) must print byte-identical JSON.
# The zero-allocation overflow-migration guard rides along without -race
# (the race runtime allocates on its own).
shard-smoke:
	$(GO) test -race -count=1 -run 'TestZeroAllocMigrationDrain' ./internal/event
	$(GO) test -race -count=1 -timeout 30m \
		-run 'TestGoldenScale16|TestClusterIndependence|TestShardCountSweepByteIdentical|TestClusteredResultShape|TestClusterSliceDerivation|TestArenaClusteredReuse' ./internal/sim
	$(GO) test -race -count=1 -run 'TestRunCacheShardInvariant' .
	$(GO) test -count=1 -run 'TestZeroAlloc' ./internal/event
	$(GO) build -o bin/professim ./cmd/professim
	bin/professim -preset scale16 -instr 50000 -shards 1 -nocache -json > bin/shard1.json
	bin/professim -preset scale16 -instr 50000 -shards 8 -nocache -json > bin/shard8.json
	cmp bin/shard1.json bin/shard8.json
	@echo "shard smoke: 1-shard and 8-shard scale16 runs byte-identical"

# shard-bench records the scale16 shard-scaling curve (wall time, speedup
# over shards=1, gomaxprocs) into $(BENCH_FILE) — committed for PR8 as
# BENCH_PR8.json. Speedup is bounded by the host's GOMAXPROCS; see the
# README's Performance section before reading anything into a 1-CPU run.
SHARD_BENCHTIME ?= 3x
shard-bench:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -bench=BenchmarkScale16Shards -benchtime=$(SHARD_BENCHTIME) -run='^$$' | \
		bin/benchjson -label $(BENCH_LABEL) -o $(BENCH_FILE)

# arena-smoke is the CI guard for simulation-state arena reuse. The
# differential arena-vs-fresh tests run under the race detector, then a
# cold deterministic sweep (fig5: 18 cells, no cache, no disk) runs twice
# — arena on and -noarena — with GODEBUG=gctrace=1 so the GC log lands in
# the job output. The gates: both reports byte-identical, and the
# arena-on pass stays under a fixed allocation budget per cell
# (ARENA_ALLOC_BUDGET), which fresh construction exceeds several-fold.
# Deliberately excludes scale16: its report prints wall-clock scaling
# tables, so it can never be byte-compared across runs.
ARENA_EXPS ?= fig5
ARENA_INSTR ?= 100000
ARENA_ALLOC_BUDGET ?= 2500
arena-smoke:
	$(GO) test -race -count=1 -run 'TestArena' ./internal/sim
	$(GO) build -o bin/professbench ./cmd/professbench
	GODEBUG=gctrace=1 bin/professbench -exp $(ARENA_EXPS) -instr $(ARENA_INSTR) \
		-nocache -cachedir off -benchout bin/arena-on.txt > bin/arena-on.out 2> bin/arena-on.gc
	GODEBUG=gctrace=1 bin/professbench -exp $(ARENA_EXPS) -instr $(ARENA_INSTR) \
		-nocache -cachedir off -noarena -benchout bin/arena-off.txt > bin/arena-off.out 2> bin/arena-off.gc
	cmp bin/arena-on.out bin/arena-off.out
	@awk '/^BenchmarkExp\/total / { allocs = -1; sims = -1; \
		for (i = 1; i < NF; i++) { \
			if ($$(i+1) == "allocs") allocs = $$i; \
			if ($$(i+1) == "sims") sims = $$i; \
		} \
		if (sims <= 0) { print "arena sweep ran no sims"; exit 1 } \
		per = allocs / sims; \
		printf "arena-on:  %d allocs / %d cells = %.0f allocs/cell (budget $(ARENA_ALLOC_BUDGET))\n", allocs, sims, per; \
		if (per > $(ARENA_ALLOC_BUDGET)) { print "arena allocation budget exceeded"; exit 1 } }' bin/arena-on.txt
	@awk '/^BenchmarkExp\/total / { allocs = -1; sims = -1; \
		for (i = 1; i < NF; i++) { \
			if ($$(i+1) == "allocs") allocs = $$i; \
			if ($$(i+1) == "sims") sims = $$i; \
		} \
		printf "arena-off: %d allocs / %d cells = %.0f allocs/cell\n", allocs, sims, allocs / sims }' bin/arena-off.txt
	@printf "gc cycles: arena-on %s, arena-off %s\n" \
		"$$(grep -c '^gc ' bin/arena-on.gc || true)" "$$(grep -c '^gc ' bin/arena-off.gc || true)"

# sample-smoke is the CI guard for the sampled-simulation tier (interval
# sampling with functional fast-forward). Under the race detector it runs
# the exactness contracts — fraction 1.0 byte-identical to the full run
# across schemes/seeds/faults, sampled-run determinism, the
# error-shrinks-with-fraction property, the validation rejections and the
# run-key normalisation guard — then enforces the committed
# accuracy/speedup envelope (testdata/sample_envelope.json) at standard
# scale, and finally drives a real professbench sweep with -sample: every
# eligible cell must be rewritten to the sampled tier and served back
# under its full-fidelity key.
SAMPLE_EXPS ?= fig10
SAMPLE_INSTR ?= 2000000
SAMPLE_WORKLOADS ?= w09,w16
sample-smoke:
	$(GO) test -race -count=1 -run 'TestSampled|TestSamplingValidation' ./internal/sim
	$(GO) test -race -count=1 -run 'TestRunKeySamplingNormalised|TestSweepPlanSample' .
	$(GO) test -count=1 -timeout 30m -run 'TestSampleEnvelope|TestSampleValReportRendering' .
	$(GO) build -o bin/professbench ./cmd/professbench
	bin/professbench -exp $(SAMPLE_EXPS) -instr $(SAMPLE_INSTR) -workloads $(SAMPLE_WORKLOADS) \
		-cachedir off -sample 0.25 > bin/sample-sweep.out 2> bin/sample-sweep.err
	@grep -E 'sample: [1-9][0-9]* of [0-9]+ cells rewritten' bin/sample-sweep.err || \
		{ echo "sampled sweep rewrote no cells"; cat bin/sample-sweep.err; exit 1; }
	@grep -E '[1-9][0-9]* cells served by their sampled runs' bin/sample-sweep.err || \
		{ echo "sampled sweep served no full-fidelity keys"; cat bin/sample-sweep.err; exit 1; }
	@echo "sample smoke: sampled sweep rewrote and served its cells"

# sample-bench records the fidelity ladder's wall-clock trajectory into
# $(BENCH_FILE) — committed for PR10 as BENCH_PR10.json: the standard
# multi-program sweep cold at full fidelity, then cold again on the
# sampled tier at $(SAMPLE_FRACTION). The ns/op ratio of the two total
# lines is the sweep speedup the envelope's floor tracks.
SAMPLE_FRACTION ?= 0.05
SAMPLE_BENCH_EXPS ?= fig10
sample-bench:
	$(GO) build -o bin/professbench ./cmd/professbench
	$(GO) build -o bin/benchjson ./cmd/benchjson
	bin/professbench -exp $(SAMPLE_BENCH_EXPS) -instr 0 -cachedir off \
		-benchout bin/sample-full.txt > /dev/null
	bin/benchjson -label sweep-full-fidelity -o $(BENCH_FILE) < bin/sample-full.txt
	bin/professbench -exp $(SAMPLE_BENCH_EXPS) -instr 0 -cachedir off -sample $(SAMPLE_FRACTION) \
		-benchout bin/sample-sampled.txt > /dev/null
	bin/benchjson -label sweep-sampled -o $(BENCH_FILE) < bin/sample-sampled.txt

# xval-smoke is the CI guard for the analytic fast tier: the committed
# cross-validation error envelope and the sweep-pruning safety audit
# (prune rate, figure transparency, true-delta margin) run under the
# race detector, then internal/analytic must clear its own coverage
# floor.
xval-smoke:
	$(GO) test -race -count=1 -timeout 30m \
		-run 'TestXValEnvelope|TestXValReportRendering|TestPruneSafety' .
	@mkdir -p bin
	$(GO) test -coverprofile=bin/analytic-cover.out ./internal/analytic
	@$(GO) tool cover -func=bin/analytic-cover.out | awk -v min=$(ANALYTIC_COVER_MIN) ' \
		/^total:/ { sub(/%/, "", $$3); total = $$3 } \
		END { \
			printf "internal/analytic coverage: %.1f%% (minimum %s%%)\n", total, min; \
			if (total + 0 < min + 0) { print "analytic coverage below minimum"; exit 1 } \
		}'

# cover fails the build when total statement coverage drops under COVER_MIN.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | awk -v min=$(COVER_MIN) ' \
		/^total:/ { sub(/%/, "", $$3); total = $$3 } \
		END { \
			printf "total coverage: %.1f%% (minimum %s%%)\n", total, min; \
			if (total + 0 < min + 0) { print "coverage below minimum"; exit 1 } \
		}'

# fuzz-smoke gives each fuzz target a short budget — enough to catch
# regressions on the checked-in seeds plus a little exploration.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadTrace -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzParsePlan -fuzztime=$(FUZZTIME) ./internal/fault
