# Local targets mirror .github/workflows/ci.yml exactly: `make ci` runs the
# same gates in the same order as a push.

GO ?= go

.PHONY: build test race bench bench-gate bench-long bench-ff bench-module bench-pairs lint inline-check fma-check test-386 vuln experiments examples fuzz-smoke loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: one iteration of every benchmark (the CI smoke); use
## `go test -bench . -benchtime 5x .` for stable figure numbers.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-gate: the CI perf gate — TestWorkGate (work_test.go) runs every
## case of the work table once: it fails when a case's allocs/op exceed
## 1.25× the budget recorded in the table, or when its exact work counters
## (events fired, heap pushes, rate sweeps, kernels visited, replay work)
## differ from testdata/work.txt. An intended change re-records the file
## with `go test -run TestWorkGate -update .` and shows up as its diff.
bench-gate:
	$(GO) test -count=1 -run '^TestWorkGate$$' .

## bench-long: the long-horizon memory benchmark alone — allocations per
## run stay flat from a 2 s to a 600 s horizon (streaming metrics, job
## recycling and fast-forward; see DESIGN.md §8).
bench-long:
	$(GO) test -run '^$$' -bench BenchmarkLongHorizon -benchmem -benchtime 1x .

## bench-ff: the steady-state fast-forward benchmarks — the eligible 60 s
## run fast-forwarded versus simulated in full, plus the long-horizon
## sweep it shortens (see DESIGN.md §12) — and the two layer micro-benches
## under them: stats.RepeatedSum against the naive replay loop, and
## metrics.Collector.Summary over a 300 s cell's backlog, streamed and
## replayed. Report-only: bench-gate gates the root cases' allocations and
## work counters.
bench-ff:
	$(GO) test -run '^$$' -bench 'BenchmarkSteadyState|BenchmarkLongHorizon' -benchmem -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkRepeatedSum|BenchmarkCollectorSummary' -benchmem ./internal/stats ./internal/metrics

## bench-module: vet and test the host-speed benchmark's own module (bench/,
## see bench/README.md). Being a separate module, it is outside the root
## `go test ./...`; its tests check the first cell of each workload against
## the committed golden digests.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## bench-pairs: compare the working tree's host speed against BASE (a git
## revision) in PAIRS alternating runs of `bench/run.sh -workloads
## $(WORKLOADS)`, then `-compare` the pooled sides; BENCH_FLAGS passes extra
## run.sh flags (e.g. `-seed 3 -seconds 10`). BASE is checked out as a git
## worktree under .bench_build/ for the duration (scripts/bench-pairs.sh).
PAIRS ?= 10
WORKLOADS ?= paper-grid
bench-pairs:
	@test -n "$(BASE)" || { echo "usage: make bench-pairs BASE=<ref> [PAIRS=10] [WORKLOADS=a,b] [BENCH_FLAGS=...]" >&2; exit 2; }
	bash scripts/bench-pairs.sh '$(BASE)' '$(PAIRS)' '$(WORKLOADS)' $(BENCH_FLAGS)

## lint: vet, gofmt, and the sgprs-lint determinism suite (DESIGN.md §14) —
## the same blocking gate CI runs.
lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) run ./cmd/sgprs-lint ./...

## inline-check: fail unless the gpu rate sweep (Device.recompute) inlines
## its per-kernel helpers, aggregateGain first among them (DESIGN.md §10;
## scripts/inline-check.sh) — an out-of-line call there costs throughput
## without failing any test.
inline-check:
	@GO=$(GO) bash scripts/inline-check.sh

## fma-check: fail if arm64, ppc64le, s390x or riscv64 would fuse any
## floating-point multiply-add in the module (DESIGN.md §6;
## scripts/fma-check.sh) — a fused x*y + z rounds once, so results would
## depend on the CPU architecture. amd64 never fuses.
fma-check:
	@GO=$(GO) bash scripts/fma-check.sh

## test-386: vet and test the module built for 32-bit x86 (GOARCH=386), so
## an int that silently assumes 64 bits fails here (DESIGN.md §6). Runs the
## 386 binaries on this host; needs no emulator.
test-386:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./...

## vuln: scan the module against the Go vulnerability database. Uses a
## govulncheck binary when one is installed; otherwise reports how to get
## one rather than failing the build (the tool needs network access).
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; install with:" >&2; \
		echo "  go install golang.org/x/vuln/cmd/govulncheck@latest" >&2; \
		exit 1; \
	fi

## experiments: enumerate the declarative experiment registry (name,
## shape, axes, description).
experiments:
	$(GO) run ./cmd/sgprs list

## examples: build every example, then run each one end to end (the CI
## examples gate). The examples are enumerated from examples/*/, so a new
## example joins the gate automatically.
examples:
	$(GO) build ./examples/...
	@set -e; \
	for dir in examples/*/; do \
		echo "examples: $$dir"; \
		$(GO) run "./$$dir"; \
	done

## loc: count the non-test Go lines outside bench/ (the module's own
## benchmark lives there), raw and non-blank non-comment — the figures
## CHANGES.md records per change.
loc:
	@bash scripts/loc.sh

## fuzz-smoke: a short bounded run of every fuzz target — enough to catch
## parser regressions on each push without burning CI minutes. Targets are
## enumerated with `go test -list '^Fuzz'` per package, so adding a fuzz
## function anywhere in the tree adds it to this gate automatically.
fuzz-smoke:
	@set -e; \
	for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' "$$pkg" | grep '^Fuzz' || true); \
		for t in $$targets; do \
			echo "fuzz-smoke: $$pkg $$t"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s "$$pkg"; \
		done; \
	done

ci: lint inline-check fma-check test-386 build race bench-module examples fuzz-smoke bench bench-gate
