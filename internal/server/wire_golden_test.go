package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata golden files")

// wireValues are the keys whose values the wire-shape pin records; of
// every other leaf it records the JSON type alone, so clocks, latencies
// and sequence numbers do not reach the file.
var wireValues = map[string]bool{
	"phase": true, "from": true, "convergence": true, "converged": true, "progress": true,
	"kind": true, "form": true, "encoding": true, "strategy": true, "status": true,
	"name": true, "rows": true, "shards": true, "columns": true, "idle_refine": true,
}

// wireShape renders a decoded JSON value one leaf a line, in key order:
// the path, then the value (wireValues) or the type.
func wireShape(out *strings.Builder, path string, v any) {
	key, _, _ := strings.Cut(path[strings.LastIndexByte(path, '.')+1:], "[")
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			wireShape(out, path+"."+k, x[k])
		}
	case []any:
		if len(x) == 0 {
			fmt.Fprintf(out, "%s = []\n", path)
		}
		for i, e := range x {
			wireShape(out, fmt.Sprintf("%s[%d]", path, i), e)
		}
	case float64:
		if wireValues[key] {
			fmt.Fprintf(out, "%s = %.6f\n", path, x)
		} else {
			fmt.Fprintf(out, "%s number\n", path)
		}
	default:
		if wireValues[key] {
			fmt.Fprintf(out, "%s = %v\n", path, x)
		} else {
			fmt.Fprintf(out, "%s %T\n", path, x)
		}
	}
}

// TestWireShapeGolden pins what the three read endpoints say about a
// table's lifecycle — GET /tables/{name}, its entry in GET /stats and
// GET /tables/{name}/debug: every key present, and the values of phase,
// convergence, converged and the other wireValues, down to the shards,
// the columns and the timeline's events — for a PQ table of two shards
// and a three-column table, right after the load and again after a fixed
// stream of queries has converged the table. Idle refinement is off and
// the queries go one at a time, so
// every slice is a query's and the stream repeats. A refactor of how the
// layers under the server learn an index's phase and progress must leave
// testdata/wire_shape.golden byte-identical (regenerate with -update
// only when a response is meant to change).
func TestWireShapeGolden(t *testing.T) {
	_, ts := newTestServer(t)
	off := false
	tables := []LoadRequest{
		{Name: "pq", Generate: &GenerateSpec{Kind: "uniform", N: 10_000, Seed: 3},
			Options: &OptionsSpec{Strategy: "PQ", Delta: 0.25, Workers: 1, Shards: 2, IdleRefine: &off}},
		{Name: "mc", Generate: &GenerateSpec{Kind: "correlated", N: 9_000, Seed: 7},
			Options: &OptionsSpec{Strategy: "PQ", Delta: 0.25, Workers: 1, IdleRefine: &off, Columns: []string{"a", "b", "c"}}},
	}
	get := func(url string) any {
		t.Helper()
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var v any
		if err := json.Unmarshal(body, &v); resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("GET %s: status %d, %v: %s", url, resp.StatusCode, err, body)
		}
		return v
	}
	var out strings.Builder
	snapshot := func(name, when string) (converged bool) {
		fmt.Fprintf(&out, "== %s %s\n", name, when)
		info := get("/tables/" + name)
		wireShape(&out, "info", info)
		for _, ts := range get("/stats").(map[string]any)["tables"].([]any) {
			if ts.(map[string]any)["name"] == name {
				wireShape(&out, "stats", ts)
			}
		}
		wireShape(&out, "debug", get("/tables/"+name+"/debug"))
		return info.(map[string]any)["converged"].(bool)
	}
	for _, load := range tables {
		name := load.Name
		do(t, http.MethodPost, ts.URL+"/tables", load, http.StatusCreated, nil)
		snapshot(name, "loaded")
		queries := 0
		for converged := false; !converged; queries++ {
			if queries == 400 {
				t.Fatalf("%s: not converged after %d queries", name, queries)
			}
			lo := int64(queries * 613 % 9_000)
			do(t, http.MethodPost, ts.URL+"/tables/"+name+"/query", rangeQuery(lo, lo+1_500), http.StatusOK, nil)
			converged = get("/tables/" + name).(map[string]any)["converged"].(bool)
		}
		snapshot(name, fmt.Sprintf("after %d queries", queries))
	}

	path := filepath.Join("testdata", "wire_shape.golden")
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
		t.Fatalf("%v (run go test ./internal/server -run TestWireShapeGolden -update)", err)
	}
	if got := out.String(); got != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, g := range strings.Split(got, "\n") {
			if i >= len(wl) || g != wl[i] {
				t.Errorf("line %d: got %q, not in %s", i+1, g, path)
				break
			}
		}
		t.Fatalf("wire shape differs from %s", path)
	}
}
