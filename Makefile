# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: all build test test-notavx2 test-equiv race lint lint-sarif lint-update-baseline vet fmt bench bench-check fuzz-smoke trace-demo clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fallback-tier coverage: downgrade the CPUID probe so kernel dispatch
# resolves to the portable go tier (see internal/tensor/dispatch.go),
# for the kernels, core's serial figure engines, memnn's inference
# pass, and the served path on top.
test-notavx2:
	GODEBUG=cpu.avx2=off,cpu.avx=off $(GO) test ./internal/tensor/... ./internal/core/... ./internal/memnn/... ./internal/equivtest/... ./internal/server/...

# Cross-engine equivalence sweep (internal/equivtest): every inference
# configuration — serial/parallel, batched/unbatched, kernel tiers,
# gate off/armed-but-unfireable — must be bit-identical per tier, and
# every engine within OracleTol of the float64 reference.
test-equiv:
	$(GO) test -count=1 -v -run 'TestEquivalenceSweep' ./internal/equivtest/

# Full race-detector sweep (the nightly CI job); slow but exhaustive.
race:
	$(GO) test -race -count=1 ./...

# The repo's own analyzers (asmtwin, hotalloc, poolescape, atomicfield,
# guardedby, floatdet, lockorder, ctxleak — see internal/lint and
# DESIGN.md §9/§14). Findings are diffed against lint.baseline: new
# findings exit 2, stale baseline entries exit 1.
lint:
	$(GO) run ./cmd/mnnfast-lint -baseline lint.baseline ./...

# Same findings as SARIF 2.1.0, for GitHub code scanning or local
# viewers. CI uploads this file on every PR.
lint-sarif:
	$(GO) run ./cmd/mnnfast-lint -baseline lint.baseline -format=sarif -o lint.sarif ./...

# Rewrite lint.baseline from the current findings. Run after fixing a
# baselined finding (stale entries fail `make lint`); adding new debt
# needs a reason in the PR.
lint-update-baseline:
	$(GO) run ./cmd/mnnfast-lint -baseline lint.baseline -update-baseline ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

bench:
	$(GO) test -run=^$$ -bench=. -benchmem ./...

# The repo benchmark (bench/, BENCHMARK.json) on this tree against a
# parent commit: check BASE (default HEAD~1) out into a git worktree
# under .bench_build/, run bench/run.sh there and here — one after the
# other, each building from its own source — and compare the two result
# files with the benchmark's own -compare. Fails on a `worse` row (and
# on a failed run); `unresolved` rows (spread wider than the metric's
# bound) are printed and are not a pass to quote. BENCH_ARGS reaches
# both runs (e.g. "-seed 2", or "" to add the traced per-layer pass);
# it must leave all five workloads on, since only a full run writes a
# result file.
BASE ?= HEAD~1
BENCH_ARGS ?= -trace 0
bench-check:
	@wt=.bench_build/parent; out=$$PWD/.bench_build/check; \
	mkdir -p .bench_build; rm -rf $$out; \
	git worktree remove --force $$wt 2>/dev/null; \
	git worktree add --detach $$wt $(BASE) >/dev/null || exit 1; \
	trap "git worktree remove --force $$wt" EXIT; \
	(cd $$wt && bash bench/run.sh $(BENCH_ARGS) -out $$out/parent) || exit 1; \
	bash bench/run.sh $(BENCH_ARGS) -out $$out/change || exit 1; \
	.bench_build/mnnfast-bench -compare $$out/parent/result_seed*.json $$out/change/result_seed*.json; rc=$$?; \
	if [ $$rc -eq 2 ]; then echo "bench-check: no worse row, but unresolved ones: rerun, or say so beside any number you quote"; rc=0; fi; \
	exit $$rc

# End-to-end tracing walkthrough: start a batched, parallel server
# with the flight recorder keeping every trace, drive it with the load
# generator, and print the span tree of the slowest answer (see
# README "Tracing" and DESIGN.md §12).
trace-demo:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./cmd/mnnfast-serve ./cmd/mnnfast-loadgen || exit 1; \
	$$tmp/mnnfast-serve -addr 127.0.0.1:18080 -batch-max 8 -parallelism 2 -trace-sample 1 & \
	pid=$$!; \
	trap "kill $$pid 2>/dev/null" EXIT; \
	for i in $$(seq 1 100); do \
		curl -sf http://127.0.0.1:18080/v1/healthz >/dev/null 2>&1 && break; \
		sleep 0.2; \
	done; \
	$$tmp/mnnfast-loadgen -url http://127.0.0.1:18080 -sessions 4 -questions 10 -slowest 1

# Exercise each fuzz target briefly against its seed corpus. CI's
# fuzz-smoke job runs this target, and the nightly job runs it with
# FUZZTIME=30s, so a new fuzz target is listed here and nowhere else.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzStoryJSON -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzAnswerJSON -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzTokenize -fuzztime=$(FUZZTIME) ./internal/vocab/
	$(GO) test -run=^$$ -fuzz=FuzzKernelTiers -fuzztime=$(FUZZTIME) ./internal/tensor/
	$(GO) test -run=^$$ -fuzz=FuzzExitPolicy -fuzztime=$(FUZZTIME) ./internal/memnn/
	$(GO) test -run=^$$ -fuzz=FuzzTopKIndex -fuzztime=$(FUZZTIME) ./internal/sparse/

clean:
	$(GO) clean ./...
