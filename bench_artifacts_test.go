package progidx

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/shard"
)

// TestBenchArtifactsRecordMachine guards the committed BENCH_*.json
// artifacts' machine record: exactly the three suites cmd/bench still
// has (the served-path benchmark superseded the rest) must each stamp
// the host they were produced on, and that host must have more than one
// CPU — every artifact holds parallel figures, and a speedup recorded on
// one core (as the PR 2 artifacts were) says nothing. If cmd/bench ever
// drops or renames the host block, this fails before a meaningless
// artifact lands.
func TestBenchArtifactsRecordMachine(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"BENCH_kernels.json", "BENCH_planner.json", "BENCH_shards.json"}; !slices.Equal(paths, want) {
		t.Fatalf("committed bench artifacts %v, want exactly %v", paths, want)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var artifact struct {
			Host struct {
				GOOS       string `json:"goos"`
				NumCPU     int    `json:"num_cpu"`
				GOMAXPROCS int    `json:"gomaxprocs"`
				GoVersion  string `json:"go_version"`
			} `json:"host"`
			Timestamp string `json:"timestamp"`
		}
		if err := json.Unmarshal(raw, &artifact); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		h := artifact.Host
		if h.GOMAXPROCS < 1 || h.GOOS == "" || h.GoVersion == "" {
			t.Fatalf("%s: incomplete machine record %+v (num_cpu and gomaxprocs must be stamped)", path, h)
		}
		if h.NumCPU < 2 {
			t.Errorf("%s was recorded on %d CPU; re-run its cmd/bench suite on a multi-core host", path, h.NumCPU)
		}
		if artifact.Timestamp == "" {
			t.Fatalf("%s: missing timestamp", path)
		}
	}
}

// TestBenchKernelsEncodings guards the compressed-storage section of
// the committed kernels artifact: every measured encoding must have
// answered bit-identically to the raw kernel, and the headline claim —
// FOR-BP on the uniform column at ≥2x compression with at most a 20%
// range-scan penalty — must hold in the committed numbers, so a kernel
// regression cannot land silently behind a stale artifact.
func TestBenchKernelsEncodings(t *testing.T) {
	raw, err := os.ReadFile("BENCH_kernels.json")
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Encodings []struct {
			Data        string  `json:"data"`
			Encoding    string  `json:"encoding"`
			Kind        string  `json:"kind"`
			Aggs        string  `json:"aggs"`
			BytesPerRow float64 `json:"bytes_per_row"`
			Ratio       float64 `json:"compression_ratio"`
			Penalty     float64 `json:"scan_penalty_vs_raw"`
			Identical   bool    `json:"identical_answer"`
		} `json:"encodings"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatal(err)
	}
	if len(artifact.Encodings) == 0 {
		t.Fatal("BENCH_kernels.json: no encodings section; re-run `go run ./cmd/bench -suite kernels`")
	}
	sawUniformFORBP := false
	for _, e := range artifact.Encodings {
		if !e.Identical {
			t.Errorf("encoding %s/%s (%s): answer not identical to the raw kernel", e.Data, e.Encoding, e.Aggs)
		}
		if e.BytesPerRow <= 0 || e.BytesPerRow > 8.5 {
			t.Errorf("encoding %s/%s: implausible bytes_per_row %g", e.Data, e.Encoding, e.BytesPerRow)
		}
		if e.Data == "uniform" && e.Encoding == "forbp" {
			sawUniformFORBP = true
			if e.Ratio < 2 {
				t.Errorf("uniform/forbp (%s): compression ratio %.2f < 2x target", e.Aggs, e.Ratio)
			}
			if e.Penalty > 0.20 {
				t.Errorf("uniform/forbp (%s): scan penalty %.1f%% exceeds the 20%% budget", e.Aggs, e.Penalty*100)
			}
		}
	}
	if !sawUniformFORBP {
		t.Error("BENCH_kernels.json: no uniform/forbp encoding rows")
	}
}

// TestBenchPlannerArtifact guards the committed planner artifact's
// headline claim: on the 0.1%-selectivity correlated workload, letting
// the planner pick the driving column must be at least 2x faster than
// pinning the worst column, and every driver policy — planner or
// pinned — must have answered identically to the brute-force oracle
// (the bit-identity contract of driver choice).
func TestBenchPlannerArtifact(t *testing.T) {
	raw, err := os.ReadFile("BENCH_planner.json")
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		TargetSel float64        `json:"target_selectivity"`
		ActualSel float64        `json:"actual_selectivity_mean"`
		Picks     map[string]int `json:"planner_driver_picks"`
		Speedup   float64        `json:"speedup_vs_worst_column"`
		Results   []struct {
			Driver       string  `json:"driver"`
			MeanQueryMs  float64 `json:"mean_query_ms"`
			AnswersMatch bool    `json:"answers_match_oracle"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatal(err)
	}
	if len(artifact.Results) < 3 {
		t.Fatalf("planner artifact has %d driver policies, want planner + >=2 pinned; re-run `go run ./cmd/bench -suite planner`", len(artifact.Results))
	}
	for _, r := range artifact.Results {
		if !r.AnswersMatch {
			t.Errorf("driver policy %q did not answer identically to the oracle", r.Driver)
		}
		if r.MeanQueryMs <= 0 {
			t.Errorf("driver policy %q has implausible mean_query_ms %g", r.Driver, r.MeanQueryMs)
		}
	}
	if artifact.Speedup < 2 {
		t.Errorf("driver-choice speedup %.2fx < 2x target vs the worst pinned column", artifact.Speedup)
	}
	if len(artifact.Picks) == 0 {
		t.Error("planner artifact records no driver picks")
	}
	// The workload is designed at 0.1% selectivity; the measured mean
	// must be in its neighborhood or the speedup claim is about a
	// different workload than advertised.
	if artifact.ActualSel <= 0 || artifact.ActualSel > 5*artifact.TargetSel {
		t.Errorf("actual selectivity %.5f is not near the %.5f design point", artifact.ActualSel, artifact.TargetSel)
	}
}

// TestBenchShardsGrowth guards the ingest-growth section of the
// committed shards artifact: after thousands of 256-row appends, each
// flushed by idle refinement, the shard count must sit within the seal
// path's bound (shard.MaxShards, recomputed here — not the artifact's
// own copy), nowhere near one shard per append, with every answer
// checked against the oracle. The artifact must come from a host with
// more than one CPU: the sweep above it is about parallel fan-out.
func TestBenchShardsGrowth(t *testing.T) {
	raw, err := os.ReadFile("BENCH_shards.json")
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Host struct {
			NumCPU int `json:"num_cpu"`
		} `json:"host"`
		Growth []struct {
			LoadedShards int  `json:"loaded_shards"`
			SealRows     int  `json:"seal_rows"`
			Appends      int  `json:"appends"`
			AppendRows   int  `json:"append_rows"`
			ShardsAfter  int  `json:"shards_after"`
			AnswersMatch bool `json:"answers_match_oracle"`
		} `json:"growth"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatal(err)
	}
	if artifact.Host.NumCPU < 2 {
		t.Errorf("BENCH_shards.json was recorded on %d CPU; re-run `go run ./cmd/bench -suite shards` on a multi-core host", artifact.Host.NumCPU)
	}
	if len(artifact.Growth) < 3 {
		t.Fatalf("shards artifact has %d growth runs, want 3; re-run `go run ./cmd/bench -suite shards`", len(artifact.Growth))
	}
	for _, g := range artifact.Growth {
		bound := shard.MaxShards(g.LoadedShards, g.Appends*g.AppendRows, g.SealRows)
		if g.ShardsAfter > bound || g.ShardsAfter < g.LoadedShards {
			t.Errorf("growth appends=%d: %d shards, want within [%d, %d]", g.Appends, g.ShardsAfter, g.LoadedShards, bound)
		}
		if !g.AnswersMatch {
			t.Errorf("growth appends=%d: answers did not match the oracle", g.Appends)
		}
	}
}
