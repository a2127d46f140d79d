# Development entry points. CI runs test, race, loc and one iteration of
# microbench. What a client observes, and where the time goes, is
# measured on the served path: bash benchmark/run.sh --workload
# converge|steady|conj|ingest [--trace 1].

GO ?= go

.PHONY: test race race-list race-repeat procs model microbench fmt vet loc deps

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# The shard layer's structural races depend on timing, so CI's race job
# repeats these tests (race-repeat). race-list fails when go test -list
# finds fewer of them than RACE_REPEAT names: a renamed or deleted test
# cannot silently drop out of the repetition.
RACE_REPEAT = TestShardedObserversRaceClaimsAndMerges|TestReaderOnPreMergeViewKeepsItsAnswer|TestReadersRaceSettle|TestSealRacesSettle|TestColumnsStayInLockstep|TestLeaderCarriesBudgetOnDirectRoute|TestQuiescentRouteRaces|TestCaptureRacesAppends
RACE_REPEAT_PKGS = . ./internal/shard ./internal/plan ./internal/server ./internal/catalog
race-list:
	@want=$$(echo '$(RACE_REPEAT)' | tr '|' '\n' | wc -l); \
	got=$$($(GO) test -list '^($(RACE_REPEAT))$$' $(RACE_REPEAT_PKGS) | grep -c '^Test'); \
	echo "$$got of $$want race-repeat tests found"; \
	if [ $$got -lt $$want ]; then echo "RACE_REPEAT names a test go test -list does not find" >&2; exit 1; fi

race-repeat: race-list
	$(GO) test -race -count=10 -run '^($(RACE_REPEAT))$$' $(RACE_REPEAT_PKGS)

# Tier-1 at several worker counts: the parallel kernels, the shard
# fan-out and a row-ordered load's pack split their work by GOMAXPROCS,
# and a bug that needs more workers than the host has cores hides from
# plain test.
# Stops at the first red run. -count=1: the test cache does not key on
# GOMAXPROCS, so a pass at one count would be replayed at the next.
procs:
	@for p in 1 4 8 16; do echo "GOMAXPROCS=$$p"; GOMAXPROCS=$$p $(GO) test -count=1 ./... || exit 1; done

# The served table's model test over every combination of its axes
# (strategy, loaded shards, encoding, schema, workers: 216 seeds); plain
# test runs its tier-1 seeds only. Replay one seed N with
# go test -run 'TestServedModel/seed=N$$' ./internal/catalog -model.seeds=216
model:
	$(GO) test -count=1 -run '^TestServedModel$$' ./internal/catalog -model.seeds=216

# One kernel's ns/op: every benchmark of the six packages CI's bench
# smoke runs once. For one of them, e.g.
# go test -run '^$$' -bench ConjDriver ./internal/plan
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 2x ./internal/btree ./internal/column ./internal/core ./internal/shard ./internal/encode ./internal/plan

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Non-test Go and assembly lines outside benchmark/ — the figure
# ROADMAP.md aim 2 tracks (it should go down). Gated, not just printed: a
# change that grows the code past LOC_MAX has to raise it here, in its
# own diff. The *.s files count from the first assembly kernels on.
# PR 21 (settled shards, a feature) raised it from 20 356 by its net, +176;
# PR 23 (one served table type) lowered it from 20 532, PR 24 (the
# second benchmark tool retired) from 20 247, PR 25 (one index contract
# under the shard layer) from 19 417.
# PR 26 (the indexing kernels, a perf feature) raised it from 19 299 by
# its net, +205: kernels.go in, Cursor.Next and three createSteps out.
# PR 27 (a converged SUM by lookup, a perf feature) raised it from 19 504
# by its net, +60: the B+-tree's prefix sums in, consolidator.matched out.
# PR 28 (the B+-tree's leaves packed, a memory feature) raised it from
# 19 564 by its net, +161: encode's lane kernels and the block-grained
# builder in, the level-by-level builder and qtree.checkSorted out.
# PR 29 (a table serves only the paper's four) lowered it from 19 725.
# PR 32 (a one-column shard holds its rows once, as its tree's leaves
# framed per 64-row group; a memory feature) raised it from 19 674 by its
# net, +258: encode.SortedBlock and its kernels in, Segment's lane kernels
# and the factory's error out.
# PR 38 (one seal path for raw and compressed tables; appended rows
# settle) lowered it from 19 932.
# The quiescent route (a converged table's queries answered on the
# handler goroutine, with an answer encoder that does not reflect; a
# perf feature) raised it from 19 899 by its net, +203: the route and
# codec.go's encoder in, the handler's answer encoding out.
# Sorted leaf groups framed by a line, not a constant (a memory feature)
# raised it from 20 102 by its net, +208: encode's fitted step and the
# kernels' lane terms in, the parallel workers' lazy start out (+99);
# checkpoints that stream a one-column table's blocks instead of copying
# its rows whole, shard.Snapshot and durable.RowSource (+109).
# One settle for every table shape (row-ordered blocks kept) lowered it from 20 310.
# One block packer for every packed run (one slab of words a run) lowered it from 20 200.
# One walk over a table's rows (the block view serves scans, seals and every checkpoint) lowered it from 20 191.
# Checkpoints off the admission queue (one ingest lock orders rows, WAL frames and capture) lowered it from 20 154.
# The served stack off the paper library (plan builds a table's columns, the root package imports plan) lowered it from 20 122.
# The tests' one full-scan oracle (internal/oracle, 59), a one-name schema that survives recovery (1) and a WAL reader that allocates only what a segment holds (2) raised it from 20 116.
# One constructor of a served column (plan.NewColumn; the root package's NewHandle and its sharded/compressed New go), a constant claim heat and two config constants lowered it from 20 178.
# The AVX2 forms of the range scan and the partition's block
# classification (a perf feature) raised it from 20 065 by its net, +321:
# their assembly (counted from here on) and start-up CPU check in, the
# sorted-run SUM loops of column and btree out.
LOC_MAX ?= 20386
loc:
	@n=$$(find . \( -name '*.go' -o -name '*.s' \) -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l); \
	echo $$n; \
	if [ $$n -gt $(LOC_MAX) ]; then echo "non-test Go lines $$n > LOC_MAX $(LOC_MAX)" >&2; exit 1; fi

# The daemon links only what it serves: the paper library (the root
# package), the strategies only the comparison figures build and the
# tests' full-scan oracle stay out of cmd/progidxd. cmd/progidxd/loadgen,
# which checks answers against the library, is a binary of its own.
deps:
	@bad=$$($(GO) list -deps ./cmd/progidxd | grep -xE 'repro|repro/internal/(cracking|baseline|imprints|phash|oracle)'); \
	if [ -n "$$bad" ]; then echo "cmd/progidxd imports what it does not serve:" >&2; echo "$$bad" >&2; exit 1; fi
