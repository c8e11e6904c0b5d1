# Local targets mirror .github/workflows/ci.yml exactly: `make ci` runs the
# same gates in the same order as a push.

GO ?= go

## Benchmark JSON snapshots: BENCH_BASELINE is the frozen reference the delta
## report and the allocation gate compare against; BENCH_CURRENT is the
## snapshot bench-json rewrites. Bump BENCH_CURRENT (and, when a baseline is
## re-frozen, BENCH_BASELINE) here instead of editing the recipes.
BENCH_BASELINE ?= BENCH_5.json
BENCH_CURRENT ?= BENCH_13.json

.PHONY: build test race bench bench-json bench-gate bench-long bench-ff bench-module bench-pairs lint inline-check vuln experiments examples fuzz-smoke loc ci

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

## bench-json: rewrite $(BENCH_CURRENT) (machine-readable ns/op, B/op,
## allocs/op, and custom metrics per benchmark) from a 3-iteration run,
## printing the ns/op and allocs/op delta against $(BENCH_BASELINE) — the
## frozen reference snapshot — first. This is how the perf trajectory
## stays trackable across PRs.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 3x . \
		| $(GO) run ./cmd/sgprs-benchjson -baseline $(BENCH_BASELINE) -out $(BENCH_CURRENT)

## bench-gate: the CI allocation gate — re-run the pinned benches and fail
## on a >25% allocs/op regression against the committed $(BENCH_CURRENT).
## The fresh snapshot goes to .bench_build/ in the checkout, so gates run
## from two clones at once never share a file.
bench-gate:
	@mkdir -p .bench_build
	$(GO) test -run '^$$' -bench 'BenchmarkScenarioRegeneration|BenchmarkSingleRun|BenchmarkEngineThroughput|BenchmarkLongHorizon|BenchmarkDenseContention|BenchmarkOverloadTail|BenchmarkSteadyState|BenchmarkFleetFailover' \
		-benchmem -benchtime 1x . \
		| $(GO) run ./cmd/sgprs-benchjson -baseline $(BENCH_CURRENT) -out .bench_build/bench-current.json \
			-gate 'BenchmarkSingleRun/|BenchmarkScenarioRegeneration/(uncached|cold|warm)-offline|BenchmarkLongHorizon/|BenchmarkOverloadTail/|BenchmarkSteadyState/|BenchmarkFleetFailover/' \
			-max-allocs-regress 25

## bench-long: the long-horizon memory benchmark alone — verifies that
## allocations per simulated second are independent of horizon length
## (streaming metrics + job recycling; see DESIGN.md §8).
bench-long:
	$(GO) test -run '^$$' -bench BenchmarkLongHorizon -benchmem -benchtime 1x .

## bench-ff: the steady-state fast-forward benchmarks — the eligible 60 s
## run with the detector on versus DisableFastForward, plus the long-horizon
## sweep it shortens (see DESIGN.md §12) — and the two layer micro-benches
## under them: stats.RepeatedSum against the naive replay loop, and
## metrics.Collector.Summary over a 300 s cell's backlog, streamed and
## replayed. Report-only: none of them is in bench-gate.
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
## shape, description) via the sweep CLI.
experiments:
	$(GO) run ./cmd/sgprs-sweep -list

## examples: build every example, then smoke-run the quickstart, the
## registry-driven experiment example, the fault-injection and
## fleet-failover walkthroughs, the pivot search, the parallel scenario
## sweep, the multi-tenant mix on per-tenant collectors, the energy and
## over-subscription sweeps, and the trace replay (the CI examples gate).
examples:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/registry
	$(GO) run ./examples/faultinjection
	$(GO) run ./examples/fleet
	$(GO) run ./examples/pivot
	$(GO) run ./examples/parallelsweep
	$(GO) run ./examples/multitenant
	$(GO) run ./examples/energy
	$(GO) run ./examples/oversubscription
	$(GO) run ./examples/tracereplay

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

ci: lint inline-check build race bench-module examples fuzz-smoke bench bench-gate
