# Tier-1+ verification gate. `make check` is the bar every change must
# clear before merging: vet, gofmt over every tracked Go file, full build,
# the test suite under the race detector, and the arm64 fused
# multiply-add check.

GO ?= go

# Minimum total test coverage (percent) enforced by `make cover`.
COVER_MIN ?= 70

# How long each fuzz target runs in `make fuzz-smoke`.
FUZZTIME ?= 10s

.PHONY: check vet fmt-check fma-check build test test-race bench bench-smoke sweep-smoke chaos-smoke xval-smoke shard-smoke arena-smoke sample-smoke perfbench-check archive-check quick cover fuzz-smoke

# Minimum statement coverage (percent) for internal/analytic, enforced by
# `make xval-smoke`: the closed-form tier is only trustworthy while its
# invariant and error-envelope tests actually exercise it.
ANALYTIC_COVER_MIN ?= 80

# Sweep settings for sweep-smoke: small enough for CI,
# large enough that a cache hit is clearly cheaper than a simulation.
SWEEP_EXPS ?= fig2,fig5,fig10,fig16
SWEEP_INSTR ?= 200000
SWEEP_WORKLOADS ?= w09,w16,w19

check: vet fmt-check build test-race fma-check

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would reformat any tracked Go file.
fmt-check:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

# fma-check keeps simulated results the same on every architecture. Go
# may fuse a float multiply and add into one instruction that skips the
# product's rounding: amd64 never does, arm64 does, so an arm64 host could
# make different decisions from the same seed. An explicit float64(...)
# around the product prevents it. The check cross-compiles professbench
# for arm64 (offline: the module has no dependencies) and fails on any
# FMADD, FMSUB, FNMADD or FNMSUB in any profess function: the root
# package and every profess/internal/... package, internal/analytic
# included.
fma-check:
	@mkdir -p bin
	GOOS=linux GOARCH=arm64 $(GO) build -o bin/professbench-arm64 ./cmd/professbench
	@$(GO) tool objdump bin/professbench-arm64 | awk ' \
		/^TEXT / { fn = $$2; next } \
		fn ~ /^profess[.\/]/ && /[[:space:]]F(N)?M(ADD|SUB)[DS][[:space:]]/ { print "fused:", fn, $$1; n++ } \
		END { \
			if (n) { print n " fused multiply-add(s) in profess on arm64"; exit 1 } \
			print "fma-check: no fused multiply-adds in profess on arm64" \
		}'

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# quick runs the short suite only (skips the simulation-heavy tests).
quick:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem

# bench-smoke is the CI guard: every benchmark must still run to
# completion (one iteration, no timing assertions).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

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
# chaos harness plus the executor's plan-lock, cancellation and retry
# tests and the multi-process cache-write tests under the race detector,
# then drives real professbench sweeps. One is interrupted with SIGINT
# mid-execute (it must drain and exit 130, or 0 if it finished first) and
# resumed to completion against the same cache directory. Then two
# identical sweeps start together on a fresh cache directory: both must
# exit 0 with byte-identical reports, and since the second waits for the
# plan's lock and resumes, their simulated counts must sum to the plan's
# cell count. The gate: neither directory may hold a leases/ directory
# or an atomic-write temp file.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos|TestExecute|TestDiskCacheMultiProcessWrites|TestDiskCacheSweepsTmpOrphans' .
	$(GO) build -o bin/professbench ./cmd/professbench
	rm -rf bin/chaoscache && mkdir -p bin/chaoscache
	timeout --preserve-status -s INT 2 bin/professbench -exp fig10 -instr 3000000 -workloads w09 \
		-cachedir bin/chaoscache > /dev/null; status=$$?; \
	if [ $$status -ne 130 ] && [ $$status -ne 0 ]; then \
		echo "interrupted sweep exited $$status, want 130 (drained) or 0 (finished early)"; exit 1; fi
	bin/professbench -exp fig10 -instr 3000000 -workloads w09 -cachedir bin/chaoscache > /dev/null
	rm -rf bin/joincache && mkdir -p bin/joincache
	bin/professbench -exp fig10 -instr 1000000 -workloads w09 -cachedir bin/joincache \
		> bin/join1.out 2> bin/join1.err & p1=$$!; \
	bin/professbench -exp fig10 -instr 1000000 -workloads w09 -cachedir bin/joincache \
		> bin/join2.out 2> bin/join2.err & p2=$$!; \
	wait $$p1; s1=$$?; wait $$p2; s2=$$?; \
	if [ $$s1 -ne 0 ] || [ $$s2 -ne 0 ]; then \
		echo "concurrent sweeps exited $$s1 and $$s2, want 0 and 0"; cat bin/join1.err bin/join2.err; exit 1; fi
	cmp bin/join1.out bin/join2.out
	@cells=$$(sed -n 's/.*plan: \([0-9]*\) distinct cells.*/\1/p' bin/join1.err); \
	sims=$$(sed -n 's/.*execute: \([0-9]*\) simulated.*/\1/p' bin/join1.err bin/join2.err | awk '{ s += $$1 } END { print s + 0 }'); \
	echo "concurrent sweeps: $$sims simulated for $$cells planned cells"; \
	if [ -z "$$cells" ] || [ "$$sims" -ne "$$cells" ]; then \
		echo "concurrent sweeps duplicated or skipped work"; cat bin/join1.err bin/join2.err; exit 1; fi
	@debris=$$(find bin/chaoscache bin/joincache \( -name leases -o -name '.tmp-*' \)); \
	if [ -n "$$debris" ]; then echo "leaked leases/ or temp files:"; echo "$$debris"; exit 1; fi; \
	echo "chaos smoke: no leases/ directory or temp files"

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

# arena-smoke is the CI guard for simulation-state arena reuse. The
# differential arena-vs-fresh tests run under the race detector, then a
# cold deterministic sweep (fig5: 18 cells, no cache, no disk) runs twice
# — arena on and -noarena — with GODEBUG=gctrace=1 so the GC log lands in
# the job output. The gates: both reports byte-identical, and the
# arena-on pass stays under a fixed allocation budget per cell
# (ARENA_ALLOC_BUDGET, just above the 85 per cell measured when it was
# set), which fresh construction exceeds several-fold.
# Deliberately excludes scale16: its report prints wall-clock scaling
# tables, so it can never be byte-compared across runs.
ARENA_EXPS ?= fig5
ARENA_INSTR ?= 100000
ARENA_ALLOC_BUDGET ?= 100
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
# the exactness contracts — the channel's functional access charging the
# same bank timing as its event path (TestFunctionalAccessMatchesIssue),
# the sampled goldens, fraction 1.0 byte-identical to the full run across
# schemes/seeds/faults, sampled-run determinism, the
# error-shrinks-with-fraction property, the validation rejections and the
# run-key normalisation guard — the fast-forward pipeline's failure paths
# (a back-end panic, cancellation mid-span, a span that would start with a
# memory request in flight), and the pinned deviation that the tier
# reverses Fig. 5 (TestSampledTierReversesFig5). Then the TestSampled
# tests run again on one P (GOMAXPROCS=1), where the pipeline's two
# goroutines take turns on one thread: a hand-off that spins instead of
# blocking hangs there (the 5m timeout fails it). Then it enforces the
# committed accuracy/speedup envelope
# (testdata/sample_envelope.json) at standard scale, and finally drives
# a real sampled professim run, which must report at least one detailed
# window at the requested fraction and the default window.
sample-smoke:
	$(GO) test -race -count=1 -run 'TestFunctionalAccessMatchesIssue' ./internal/mem
	$(GO) test -race -count=1 -run 'TestSampled|TestSamplingValidation|TestRunContextCancellation|TestFastForwardNeedsQuiescedMachine' ./internal/sim
	GOMAXPROCS=1 $(GO) test -count=1 -timeout 5m -run 'TestSampled' ./internal/sim
	$(GO) test -race -count=1 -run 'TestRunKeySamplingNormalised|TestSampledTierReversesFig5' .
	$(GO) test -count=1 -timeout 30m -run 'TestSampleEnvelope|TestSampleValReportRendering' .
	$(GO) build -o bin/professim ./cmd/professim
	bin/professim -workload w09 -scheme profess -instr 2000000 -sample 0.25 -cachedir off > bin/sample-cli.out
	@grep -E '^sampling profess: fraction=0\.25 window=240000 cycles, [1-9][0-9]* detailed windows' bin/sample-cli.out || \
		{ echo "sampled professim run reported no detailed windows"; cat bin/sample-cli.out; exit 1; }
	@echo "sample smoke: sampled professim run reported its detailed windows"

# perfbench-check is the CI guard for the benchmark's references
# (perfbench/refs): the perfbench package tests, then one short run of each
# workload. perfbench exits 0 even when a result is wrong, so each run's
# last line must read "correct":true with "failed":0. It asserts no
# timing: the benchmark's speed numbers mean nothing on shared CI hosts.
perfbench-check:
	cd perfbench && $(GO) test -count=1 ./...
	@mkdir -p bin
	@for w in cell sweep sampled fleet16; do \
		bash perfbench/run.sh --workload $$w --seconds 1 --trace 0 > bin/perfbench-$$w.out || exit 1; \
		last=$$(tail -n 1 bin/perfbench-$$w.out); \
		case "$$last" in \
		*'"correct":true'*'"failed":0'[,}]*) echo "perfbench $$w: correct, 0 failed" ;; \
		*) echo "perfbench $$w: results do not match perfbench/refs: $$last"; exit 1 ;; \
		esac; \
	done

# xval-smoke is the CI guard for the analytic fast tier: the committed
# cross-validation error envelope and the xval report's rendering run
# under the race detector, then internal/analytic must clear its own
# coverage floor.
xval-smoke:
	$(GO) test -race -count=1 -timeout 30m \
		-run 'TestXValEnvelope|TestXValReportRendering' .
	@mkdir -p bin
	$(GO) test -coverprofile=bin/analytic-cover.out ./internal/analytic
	@$(GO) tool cover -func=bin/analytic-cover.out | awk -v min=$(ANALYTIC_COVER_MIN) ' \
		/^total:/ { sub(/%/, "", $$3); total = $$3 } \
		END { \
			printf "internal/analytic coverage: %.1f%% (minimum %s%%)\n", total, min; \
			if (total + 0 < min + 0) { print "analytic coverage below minimum"; exit 1 } \
		}'

# archive-check is the CI guard for professbench_all.txt, the archived
# report of every deterministic experiment at 1.5M instructions per
# program: it reruns them cold and fails unless the report is byte-identical
# to the file. The experiment list is the archive's definition, so it is
# fixed here rather than in a variable. scale16 and sample are left out
# because they print wall times. About 15 s on 2 vCPUs.
archive-check:
	$(GO) build -o bin/professbench ./cmd/professbench
	bin/professbench -exp fig2,table4,fig5,fig6,fig7,fig8,fig9,sens-twr,sens-ratio,fig10,fig11,fig16,mempod,algos,faults,xval \
		-instr 1500000 -cachedir off > bin/archive.txt
	cmp bin/archive.txt professbench_all.txt
	@echo "archive-check: professbench_all.txt reproduces byte for byte"

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
