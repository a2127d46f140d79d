# Development entry points. CI runs test and race; bench is run
# manually (or on a perf host) and its JSON artifacts are committed so
# the performance trajectory is tracked across PRs.

GO ?= go

.PHONY: test race bench microbench fmt vet loc

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Emits BENCH_kernels.json, BENCH_shards.json and BENCH_planner.json in
# the repo root. Convergence and durability are measured on the served
# path: bash benchmark/run.sh --workload converge|ingest --trace 1
# (core.<S>.converge_queries/converge_s, column.par_speedup, durable.*,
# recover_s).
bench:
	$(GO) run ./cmd/bench

microbench:
	$(GO) test -bench 'AggRange|SumRange' -benchtime 2x ./internal/column
	$(GO) test -bench Sharded -benchtime 2x ./internal/shard

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Non-test Go lines outside benchmark/ — the figure ROADMAP.md aim 2
# tracks (it should go down). Gated, not just printed: a change that
# grows the code past LOC_MAX has to raise it here, in its own diff.
# PR 21 (settled shards, a feature) raised it from 20 356 by its net, +176;
# PR 23 (one served table type) lowered it from 20 532.
LOC_MAX ?= 20247
loc:
	@n=$$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l); \
	echo $$n; \
	if [ $$n -gt $(LOC_MAX) ]; then echo "non-test Go lines $$n > LOC_MAX $(LOC_MAX)" >&2; exit 1; fi
