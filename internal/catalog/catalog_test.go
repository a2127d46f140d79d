package catalog

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/query"
)

func TestLoadGetDropLifecycle(t *testing.T) {
	c := New()
	vals := data.Uniform(10_000, 1)
	tbl, err := c.Load("t1", vals, Options{Strategy: plan.StrategyRadixMSD, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Status() != StatusReady {
		t.Fatalf("status = %v, want ready", tbl.Status())
	}
	if tbl.Len() != 10_000 || tbl.Name() != "t1" {
		t.Fatalf("bad table identity: %q len %d", tbl.Name(), tbl.Len())
	}

	got, ok := c.Get("t1")
	if !ok || got != tbl {
		t.Fatal("Get should return the loaded table")
	}
	ans, err := tbl.Index().Execute(query.Request{Pred: query.Range(0, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Count == 0 {
		t.Fatal("query through the table handle returned nothing")
	}

	dropped, err := c.Drop("t1")
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Status() != StatusDropped {
		t.Fatalf("dropped status = %v", dropped.Status())
	}
	if _, ok := c.Get("t1"); ok {
		t.Fatal("Get should miss after Drop")
	}
	if _, err := c.Drop("t1"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestLoadRejectsDuplicatesAndBadInput(t *testing.T) {
	c := New()
	vals := data.Uniform(1000, 2)
	if _, err := c.Load("dup", vals, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load("dup", vals, Options{}); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate load error = %v", err)
	}
	if _, err := c.Load("", vals, Options{}); err == nil {
		t.Fatal("empty name should fail")
	}
	if _, err := c.Load("empty", nil, Options{}); err == nil {
		t.Fatal("empty column should fail")
	}
	// The failed loads must not leave residue.
	if c.Len() != 1 {
		t.Fatalf("catalog has %d tables, want 1", c.Len())
	}
	// A table serves only the four progressive algorithms: each of the
	// nine others is refused, and the name stays free.
	for s := plan.StrategyFullScan; s <= plan.StrategyImprints; s++ {
		if _, err := c.Load("base", vals, Options{Strategy: s}); err == nil || !strings.Contains(err.Error(), "cmd/experiments") {
			t.Fatalf("load of %v: %v, want the refusal that names cmd/experiments", s, err)
		}
		if _, err := c.Load("base", vals, Options{}); err != nil {
			t.Fatalf("PQ load after the refused %v: %v", s, err)
		}
		c.Drop("base")
	}
}

func TestListSortedAndInfo(t *testing.T) {
	c := New()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.Load(name, data.Uniform(5000, 3), Options{Strategy: plan.StrategyBucketsort}); err != nil {
			t.Fatal(err)
		}
	}
	list := c.List()
	if len(list) != 3 || list[0].Name() != "alpha" || list[1].Name() != "mid" || list[2].Name() != "zeta" {
		t.Fatalf("List order wrong: %v", []string{list[0].Name(), list[1].Name(), list[2].Name()})
	}
	info := list[0].Info()
	if info.Strategy != "PB" || info.Status != "ready" || info.Rows != 5000 {
		t.Fatalf("Info = %+v", info)
	}
	if info.Converged || info.Progress != 0 {
		t.Fatalf("fresh index should report zero progress, got %+v", info)
	}
	if _, err := time.Parse(time.RFC3339, info.CreatedAt); err != nil {
		t.Fatalf("CreatedAt %q not RFC3339: %v", info.CreatedAt, err)
	}
}

func TestIdleRefineDefaults(t *testing.T) {
	cases := []struct {
		strategy plan.Strategy
		override *bool
		want     bool
	}{
		{plan.StrategyQuicksort, nil, true},
		{plan.StrategyRadixLSD, nil, true},
		{plan.StrategyQuicksort, boolPtr(false), false},
	}
	for _, tc := range cases {
		opts := Options{Strategy: tc.strategy, IdleRefine: tc.override}
		if got := opts.IdleRefineEnabled(); got != tc.want {
			t.Errorf("IdleRefineEnabled(%v, %v) = %v, want %v", tc.strategy, tc.override, got, tc.want)
		}
	}
}

func boolPtr(b bool) *bool { return &b }

// TestShardedTableLifecycle loads a table with Shards > 1 and an
// unsharded one and checks the handle, the Info fields and the
// per-shard stats surface.
func TestShardedTableLifecycle(t *testing.T) {
	c := New()
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	tbl, err := c.Load("sh", vals, Options{Strategy: plan.StrategyQuicksort, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, planned := tbl.Planned(); planned || tbl.RowWidth() != 1 || tbl.Index().Name() != "PQ/S4" {
		t.Fatalf("sharded load built %s of %d columns, want the one-column table PQ/S4", tbl.Index().Name(), tbl.RowWidth())
	}
	if got := tbl.ShardCount(); got != 4 {
		t.Fatalf("ShardCount() = %d, want 4", got)
	}
	if info := tbl.Info(); info.Shards != 4 {
		t.Fatalf("Info().Shards = %d, want 4", info.Shards)
	}
	stats, ok := tbl.ShardStats()
	if !ok || len(stats) != 4 {
		t.Fatalf("ShardStats: ok=%v len=%d, want 4 shards", ok, len(stats))
	}
	for i, si := range stats {
		if si.Rows != 2500 {
			t.Fatalf("shard %d rows %d, want 2500", i, si.Rows)
		}
	}
	// A selective query executes against the one matching shard only.
	ans, err := tbl.Index().Execute(query.Request{Pred: query.Range(100, 200)})
	if err != nil || ans.Count != 101 {
		t.Fatalf("sharded table query: count %d err %v", ans.Count, err)
	}
	stats, _ = tbl.ShardStats()
	if stats[0].Executes != 1 || stats[3].Executes != 0 {
		t.Fatalf("pruning through the catalog failed: %+v", stats)
	}

	// An unsharded table is one shard of the same handle, and reports
	// that shard's stats.
	tbl2, err := c.Load("plain", []int64{1, 2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if name := tbl2.Index().Name(); name != "PQ/S1" {
		t.Fatalf("unsharded load built %s, want PQ/S1", name)
	}
	if tbl2.ShardCount() != 1 {
		t.Fatalf("unsharded ShardCount() = %d", tbl2.ShardCount())
	}
	if stats, ok := tbl2.ShardStats(); !ok || len(stats) != 1 || stats[0].Rows != 3 {
		t.Fatalf("unsharded ShardStats: ok=%v %+v, want one shard of 3 rows", ok, stats)
	}
}

// TestTableAppendLifecycle pins the catalog's ingest threading: rows
// flow through the handle, Info's counters and bounds track them, and
// queries see the grown table.
func TestTableAppendLifecycle(t *testing.T) {
	for _, shards := range []int{0, 3} {
		c := New()
		vals := data.Uniform(2_000, 3)
		tbl, err := c.Load("grow", vals, Options{Strategy: plan.StrategyQuicksort, Delta: 0.5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.Len(); got != 2_000 {
			t.Fatalf("shards=%d: Len = %d, want 2000", shards, got)
		}
		if err := tbl.Append([]int64{50_000, 50_001, 50_002}); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Append(nil); err != nil {
			t.Fatalf("shards=%d: empty append: %v", shards, err)
		}
		info := tbl.Info()
		if info.Rows != 2_003 || info.Appends != 1 || info.AppendedRows != 3 {
			t.Fatalf("shards=%d: info = %+v, want rows=2003 appends=1 appended_rows=3", shards, info)
		}
		if info.MaxValue != 50_002 {
			t.Fatalf("shards=%d: info.MaxValue = %d, want 50002 (widened by append)", shards, info.MaxValue)
		}
		if info.Converged {
			t.Fatalf("shards=%d: converged with pending appended rows", shards)
		}
		ans, err := tbl.Index().Execute(query.Request{Pred: query.Range(50_000, 50_002)})
		if err != nil || ans.Count != 3 || ans.Sum != 150_003 {
			t.Fatalf("shards=%d: appended rows not queryable: %+v, %v", shards, ans, err)
		}
		// A sharded table holds its rows itself (the load column does not
		// grow with it); Values must follow the table either way — as a
		// multiset, since a settled shard gives its rows sorted.
		if want := append(append([]int64(nil), vals...), 50_000, 50_001, 50_002); !sameRows(tbl.Handle().MaterializeRows(), want) {
			t.Fatalf("shards=%d: Values() is not the loaded rows and the appended ones", shards)
		}
	}
}

// TestAppendNotReadyFails pins the lifecycle guard: appending to a
// dropped table fails cleanly, with ErrDropped as its cause.
func TestAppendNotReadyFails(t *testing.T) {
	c := New()
	tbl, err := c.Load("gone", data.Uniform(100, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drop("gone"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append([]int64{1}); !errors.Is(err, ErrDropped) || !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("append to dropped table: %v, want a not-ready error wrapping ErrDropped", err)
	}
}

// sameRows reports whether a and b hold the same rows, in any order.
func sameRows(a, b []int64) bool {
	return slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b)))
}
