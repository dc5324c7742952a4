# Tier-1 gate (see ROADMAP.md): `make ci` must pass before any commit.
# .github/workflows/ci.yml runs the same targets on every push/PR, plus a
# gofmt check, a fuzz smoke and the benchdiff regression gate.
GO ?= go

# Per-PR benchmark stream: override for a scratch run, e.g.
#   make bench BENCH_OUT=BENCH_CI.json
BENCH_OUT ?= BENCH_PR9.json
# Committed baseline the regression check diffs against; CI uses this
# default, so it is named only here.
BENCH_BASELINE ?= BENCH_PR9.json

# Checked-in experiment snapshot (README embeds its tables). `make paper`
# regenerates it in place; `make paper-check` re-runs the snapshot's
# manifest and fails on any byte of drift.
PAPER_DIR ?= runs/paper
PAPER_SEED ?= 42
PAPER_REPS ?= 3

# Smoke grid: 2 scenarios × 2 solvers × 1 rep, small enough for every CI
# run.
PAPER_SMOKE_ARGS = -seed 1 -reps 1 \
	-scenarios v1-half-uniform,v1-half-normal \
	-specs "adhoc;search:phases=10,neighbors=2"

.PHONY: ci vet lint build test race bench benchdiff fmt-check fuzz-smoke \
	paper paper-check paper-smoke

ci: vet lint build race

# The explicit second vet keeps the serving, cluster, scenario and
# incremental-evaluation layers in the gate even if the ./... pattern is
# ever narrowed.
vet:
	$(GO) vet ./...
	$(GO) vet ./internal/server ./internal/cluster ./internal/scenarios
	$(GO) vet ./internal/wmn ./internal/spatial ./internal/localsearch ./internal/ga
	$(GO) vet ./internal/lint ./cmd/wmnlint

# Determinism & discipline linter (internal/lint + cmd/wmnlint, stdlib
# go/ast only): globalrand (math/rand outside internal/rng), wallclock
# (time.Now/Since/Sleep/... off the telemetry allowlist), mapiter
# (order-dependent map iteration in deterministic packages),
# ctxbackground (context.Background inside ctx-receiving functions),
# nakedgo (go statements outside the pool/serving layers), chanselect
# (multi-case selects in deterministic packages). Non-zero exit on any
# finding; waive a line with `//wmnlint:allow <rule> — <reason>`, see
# internal/lint/policy.go for the package-level allowance table.
lint:
	$(GO) run ./cmd/wmnlint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmarks only (includes the worker-pool scaling benchmark in
# internal/experiments, the corpus/suite benchmarks in internal/scenarios,
# BenchmarkIncrementalVsFull in internal/wmn — the per-neighbor
# incremental-vs-full evaluation comparison at paper and 10× scale —
# BenchmarkIslandScaling in internal/ga, the islands × workers grid,
# BenchmarkServeBatched in internal/server, the batched-vs-unbatched burst
# comparison of the serving layer, and BenchmarkPortfolio there too, the
# portfolio race against each member standalone at one shared evaluation
# budget). The test2json event stream is written
# to $(BENCH_OUT) so the perf trajectory is recorded per PR and can be
# diffed across commits with `make benchdiff`.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x -json ./... > $(BENCH_OUT)
	$(GO) test -run '^$$' -bench BenchmarkIncrementalVsFull -benchtime 1000x -json ./internal/wmn >> $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT) ($$(wc -l < $(BENCH_OUT)) events)"

# Per-benchmark ns/op deltas between the committed baseline stream and the
# current one; non-zero exit when a gated benchmark (default
# BenchmarkIncrementalVsFull) slows down more than 25%, or when a
# within-stream ratio gate fails: batched serving must not lose to the
# unbatched path, and incremental evaluation must stay at or under half of
# full evaluation, both measured on the machine that recorded the stream.
benchdiff:
	$(GO) run ./cmd/benchdiff -old $(BENCH_BASELINE) -new $(BENCH_OUT) \
		-ratio 'BenchmarkServeBatched/batched,BenchmarkServeBatched/unbatched' \
		-ratio 'BenchmarkIncrementalVsFull/10x/incremental,BenchmarkIncrementalVsFull/10x/full,0.5'

# Regenerate the documented experiment snapshot. Deterministic: the same
# seed writes the same bytes at any -workers value on any machine.
paper:
	$(GO) run ./cmd/wmnplace paper -out $(PAPER_DIR) -seed $(PAPER_SEED) -reps $(PAPER_REPS)

# Re-run the snapshot's manifest and fail if any artifact drifts — the
# gate that keeps README's embedded tables matching what the code
# actually computes.
paper-check:
	$(GO) run ./cmd/wmnplace paper -check $(PAPER_DIR)

# Reproducibility smoke: the same small grid run twice must emit
# byte-identical CSV, markdown and manifest (fingerprint included).
paper-smoke:
	rm -rf .paper-smoke
	$(GO) run ./cmd/wmnplace paper -out .paper-smoke/a $(PAPER_SMOKE_ARGS)
	$(GO) run ./cmd/wmnplace paper -out .paper-smoke/b $(PAPER_SMOKE_ARGS)
	cmp .paper-smoke/a/results.csv .paper-smoke/b/results.csv
	cmp .paper-smoke/a/results.md .paper-smoke/b/results.md
	cmp .paper-smoke/a/manifest.json .paper-smoke/b/manifest.json
	$(GO) run ./cmd/wmnplace paper -check .paper-smoke/a
	rm -rf .paper-smoke

# Source formatting check plus snapshot drift (CI fails on either;
# gofmt -l prints offenders, paper-check re-runs the snapshot manifest).
fmt-check: paper-check
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# 10-second fuzz pass per target: the spec parsers (dist and server) and
# the incremental-evaluator apply/revert walk. `go test -fuzz` takes one
# target per invocation, hence three runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalApplyRevert$$' -fuzztime 10s ./internal/wmn
