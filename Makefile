GO ?= go
BENCH_RUNS ?= 3
BENCH_SIZE ?= 2

.PHONY: build test lint verify fuzz bench benchdiff baseline compare layerbench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the static-analysis gate: the repo's own invariant
# analyzers (cmd/pds-lint — frozen messages, determinism, hot-path
# allocations, goroutine supervision, tracer hygiene, lock/send
# ordering; see DESIGN.md §12/§17), a gofmt check, and — when the
# binary is installed — golangci-lint with the pinned .golangci.yml.
# Findings are suppressed only by an audited `//lint:allow <analyzer>
# <reason>` comment; pds-lint prints every suppression and the
# per-analyzer wall times, and -budget fails the run outright if the
# whole sweep takes over a minute (a slow analyzer is a regression).
lint:
	$(GO) run ./cmd/pds-lint -budget 60s ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; skipped (CI runs it — see .golangci.yml)"; fi

# verify is the pre-merge gate: lint first (cheapest signal, fails
# fast), then vet, a full build, the whole test suite, and the race
# detector across every package — shared immutable messages and
# parallel sweep runs mean concurrency is no longer confined to the
# socket code.
verify: lint
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./...

# fuzz runs short bursts of the fuzzers: the codec, the datagram
# framing above it, the tracker wire protocol, the persistent store's
# record framing below it, and the two CLI spec grammars (fault plans
# and workload specs).
fuzz:
	$(GO) test ./internal/wire -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/udptransport -fuzz FuzzDecodeDatagram -fuzztime 30s
	$(GO) test ./internal/tracker -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/diskstore -fuzz FuzzSegmentDecode -fuzztime 30s
	$(GO) test ./internal/fault -fuzz FuzzParsePlan -fuzztime 30s
	$(GO) test ./internal/workload -fuzz FuzzParseSpec -fuzztime 30s

# bench regenerates every figure with machine-readable output in
# BENCH_PDS.json (wall time and allocation counters per figure), plus
# the diskstore micro-benchmarks. Override BENCH_RUNS / BENCH_SIZE for
# quicker or heavier sweeps.
bench:
	$(GO) run ./cmd/pds-bench -json -runs $(BENCH_RUNS) -size $(BENCH_SIZE) all
	$(GO) test ./internal/diskstore -run '^$$' -bench . -benchmem

# layerbench runs the tests of the layer-attributed benchmark, a Go
# module of its own (layerbench/go.mod) that `go test ./...` at the
# root does not reach: every workload at its tiny size, the output
# checks, digest repeats and the metric-name match with BENCHMARK.json.
# -short skips the two full-size fidelity anchors.
layerbench:
	cd layerbench && $(GO) test -short ./...

# benchdiff is the benchmark-regression gate: it compares the fresh
# BENCH_PDS.json (run `make bench` first) against the committed
# BENCH_BASELINE.json and fails on >10% alloc/op or wall-share
# regression in any figure. Regenerate the baseline with `make
# baseline` after an intentional cost change, at the CI settings
# (BENCH_RUNS=1 BENCH_SIZE=1) so figure costs stay comparable.
benchdiff:
	$(GO) run ./cmd/pds-benchdiff BENCH_BASELINE.json BENCH_PDS.json

baseline:
	$(GO) run ./cmd/pds-bench -json -runs 1 -size 1 all
	cp BENCH_PDS.json BENCH_BASELINE.json

# compare runs the routing × caching strategy matrix (see DESIGN.md
# §16) over the default scenarios and prints one ranked table per
# scenario. Narrow or widen the matrix with e.g.
# `make compare COMPARE_FLAGS='-routings cdi,bfr -compare-scenarios fig11'`.
compare:
	$(GO) run ./cmd/pds-bench -runs $(BENCH_RUNS) -size $(BENCH_SIZE) $(COMPARE_FLAGS) compare
