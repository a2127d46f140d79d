package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata golden files")

// TestStatsStreamGolden pins the whole lifecycle — every answer and
// every per-query Stats field, through creation, refinement,
// consolidation and the Done path — of all four algorithms under every
// budget mode, serial and parallel, as two FNV-64 hashes per
// configuration: the answers' column first, the Stats' second, so a
// change to the model's accounting shows as one column moving and the
// other not. The cost model is the uncalibrated default and the
// worker counts are explicit, so the stream is a pure function of the
// code: a lifecycle refactor must leave testdata/stats_stream.golden
// byte-unchanged (regenerate with -update only when behaviour is meant
// to change).
func TestStatsStreamGolden(t *testing.T) {
	const n, queries = 100_000, 250
	vals := data.Uniform(n, 1)
	gen := workload.Random(n, 7)
	// 0.4·t_scan of the default model: every configuration converges
	// inside the run, so each hash covers all four phases.
	budget := 0.4 * 6.0e-7 * float64(n) / 512
	budgets := []struct {
		name string
		cfg  Config
	}{
		{"delta0.1", Config{Mode: FixedDelta, Delta: 0.1}},
		{"fixedtime", Config{Mode: FixedTime, BudgetSeconds: budget}},
		{"adaptive", Config{Mode: AdaptiveTime, BudgetSeconds: budget}},
		{"default", Config{}},
	}

	var out strings.Builder
	for _, c := range constructors {
		for _, b := range budgets {
			for _, workers := range []int{1, 4} {
				cfg := b.cfg
				cfg.Workers = workers
				idx := c.make(column.MustNew(vals), cfg)
				ha, hs := fnv.New64a(), fnv.New64a()
				converged := -1
				for i := 0; i < queries; i++ {
					q := gen.Query(i)
					pred := query.Range(q.Lo, q.Hi)
					if i%7 == 6 {
						pred = query.Point(q.Lo)
					}
					ans, err := idx.Execute(query.Request{Pred: pred})
					if err != nil {
						t.Fatalf("%s/%s/w%d query %d: %v", c.name, b.name, workers, i, err)
					}
					st := ans.Stats
					fmt.Fprintf(ha, "%d %d %d %d %.9g\n", ans.Sum, ans.Count, ans.Min, ans.Max, ans.Avg)
					fmt.Fprintf(hs, "%d %d %.9g %.9g %.9g %.9g\n", st.Phase, st.AlphaElems,
						st.Delta, st.WorkSeconds, st.BaseSeconds, st.Predicted)
					if converged < 0 && idx.Converged() {
						converged = i
					}
				}
				fmt.Fprintf(&out, "%s/%s/w%d converged=%d %016x %016x\n", c.name, b.name, workers, converged, ha.Sum64(), hs.Sum64())
			}
		}
	}

	path := filepath.Join("testdata", "stats_stream.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/core -run TestStatsStreamGolden -update)", err)
	}
	if got := out.String(); got != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, g := range strings.Split(got, "\n") {
			if i >= len(wl) || g != wl[i] {
				t.Errorf("line %d: got %q, not in %s", i+1, g, path)
			}
		}
		t.Fatalf("Stats stream differs from %s", path)
	}
}
