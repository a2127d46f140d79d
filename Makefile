# Development entry points. CI runs test and race; bench is run
# manually (or on a perf host) and its JSON artifacts are committed so
# the performance trajectory is tracked across PRs.

GO ?= go

.PHONY: test race bench microbench fmt vet loc

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Emits BENCH_kernels.json, BENCH_convergence.json, BENCH_shards.json
# and BENCH_durability.json in the repo root.
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
# tracks (it should go down).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
