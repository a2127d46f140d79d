// Command bench is the repository's reproducible performance runner
// (`make bench`). It emits three JSON artifacts tracked across PRs —
// the measurements the served-path benchmark (benchmark/) cannot take,
// because they pin one layer instead of following a request through
// all of them:
//
//	BENCH_kernels.json     — ns/op of the serial scan kernels vs the
//	                         parallel kernels at 1/2/4/8 workers on a
//	                         10M-row column, with answer-identity
//	                         verification baked in;
//	BENCH_shards.json      — sharded execution sweep (shard count ×
//	                         selectivity on clustered data), with
//	                         pruned-shards-do-zero-work verification,
//	                         and the ingest-growth sweep: shard count
//	                         and query cost after thousands of small
//	                         appends, each flushed by idle refinement;
//	BENCH_planner.json     — composite-predicate driver choice on a
//	                         correlated multi-column table: the
//	                         planner's pick vs every pinned driving
//	                         column at 0.1% selectivity, with answers
//	                         checked per query against a brute-force
//	                         row scan.
//
// Convergence (per-strategy queries, seconds and first-query cost to
// convergence, parallel speedup) and durability (WAL sync, checkpoint
// and recovery cost) are measured on the served path instead: the
// benchmark's converge workload reports core.<S>.converge_queries /
// converge_s / first_query_ms / cumulative_s and column.par_speedup,
// its ingest workload durable.* and recover_s (bash benchmark/run.sh
// --workload converge|ingest --trace 1).
//
// Usage:
//
//	go run ./cmd/bench                  # all suites, default sizes
//	go run ./cmd/bench -n 20000000      # bigger kernel column
//	go run ./cmd/bench -suite shards    # one suite only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/encode"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
)

// Host describes the machine a run happened on; speedups are
// meaningless without it (a 1-core container cannot show one). The
// hostname hash distinguishes artifacts from different machines —
// e.g. a 1-core CI container vs a real multi-core perf host — without
// leaking the actual hostname into a committed file.
type Host struct {
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	HostnameHash string `json:"hostname_hash"`
}

func host() Host {
	return Host{
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		HostnameHash: hostnameHash(),
	}
}

// hostnameHash returns an 8-hex-digit FNV-1a of the hostname, or
// "unknown" when the hostname is unavailable.
func hostnameHash() string {
	name, err := os.Hostname()
	if err != nil || name == "" {
		return "unknown"
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return fmt.Sprintf("%08x", h.Sum32())
}

// KernelResult is one (kernel, workers) measurement.
type KernelResult struct {
	Kernel       string  `json:"kernel"`
	Workers      int     `json:"workers"`
	NsPerOp      float64 `json:"ns_per_op"`
	ElemsPerSec  float64 `json:"elems_per_sec"`
	SpeedupVsSer float64 `json:"speedup_vs_serial"`
	Identical    bool    `json:"identical_answer"`
}

// EncodingResult is one (dataset, encoding, aggregate-mask) scan
// measurement over a column held as a single encode.Segment: resident
// footprint (bytes/row, vs 8 for a raw int64 column) and the cost of
// scanning the compressed representation relative to the raw kernel on
// the same machine, with answer identity verified on every run.
type EncodingResult struct {
	Data     string `json:"data"`     // uniform | skewed_lowcard
	Encoding string `json:"encoding"` // requested mode
	Kind     string `json:"kind"`     // physical encoding chosen
	Aggs     string `json:"aggs"`     // sum_count | all
	N        int    `json:"n"`
	// WidthBits is the packed bit width (delta bits for FOR-BP, code
	// bits for dict; 64 for raw).
	WidthBits        int     `json:"width_bits"`
	BytesPerRow      float64 `json:"bytes_per_row"`
	RawBytesPerRow   float64 `json:"raw_bytes_per_row"`
	CompressionRatio float64 `json:"compression_ratio"`
	ResidentMB       float64 `json:"resident_mb"`
	RawResidentMB    float64 `json:"raw_resident_mb"`
	ScanNsPerOp      float64 `json:"scan_ns_per_op"`
	RawScanNsPerOp   float64 `json:"raw_scan_ns_per_op"`
	// ScanPenaltyVsRaw is scan/raw - 1: positive means the compressed
	// scan is slower than the raw kernel, negative means faster.
	ScanPenaltyVsRaw float64 `json:"scan_penalty_vs_raw"`
	Identical        bool    `json:"identical_answer"`
}

type kernelsReport struct {
	Host      Host             `json:"host"`
	N         int              `json:"n"`
	Reps      int              `json:"reps"`
	Timestamp string           `json:"timestamp"`
	Results   []KernelResult   `json:"results"`
	Encodings []EncodingResult `json:"encodings"`
}

// ShardResult is one (shards, selectivity) run of the sharded
// execution sweep.
type ShardResult struct {
	Shards         int     `json:"shards"`
	Selectivity    float64 `json:"selectivity"`
	N              int     `json:"n"`
	Queries        int     `json:"queries"`
	MeanQueryMs    float64 `json:"mean_query_ms"`
	FirstQueryMs   float64 `json:"first_query_ms"`
	TotalSec       float64 `json:"total_seconds"`
	WorkSec        float64 `json:"indexing_work_seconds"`
	ExecutedShards int     `json:"executed_shards"`
	PrunedShards   int     `json:"pruned_shards"`
	// PrunedZeroWork verifies the pruning guarantee via ShardStats:
	// every shard whose zone map misses the workload's hot region
	// reports zero executions and zero refine slices — no scan work,
	// no indexing work.
	PrunedZeroWork bool `json:"pruned_shards_zero_work"`
	// SpeedupVsUnsharded is mean_query_ms(shards=1) / mean_query_ms at
	// the same selectivity.
	SpeedupVsUnsharded float64 `json:"speedup_vs_unsharded"`
	AnswersMatch       bool    `json:"answers_match_oracle"`
}

type shardsReport struct {
	Host      Host           `json:"host"`
	Timestamp string         `json:"timestamp"`
	Strategy  string         `json:"strategy"`
	Delta     float64        `json:"delta"`
	Results   []ShardResult  `json:"results"`
	Growth    []GrowthResult `json:"growth"`
}

// GrowthResult is one run of the ingest-growth sweep: a table loaded as
// LoadedShards shards ingests Appends batches of AppendRows rows, each
// followed by idle slices until the table converges — the closed-loop
// serving pattern, where the idle flush cuts the tail after nearly
// every append.
type GrowthResult struct {
	LoadedShards int `json:"loaded_shards"`
	N            int `json:"n"`
	SealRows     int `json:"seal_rows"`
	Appends      int `json:"appends"`
	AppendRows   int `json:"append_rows"`
	// ShardsAfter is the shard count the growth ends with; ShardsBound
	// is shard.MaxShards for this run — the seal path's guarantee.
	ShardsAfter int `json:"shards_after"`
	ShardsBound int `json:"shards_bound"`
	// IngestSec covers every append and every idle slice to convergence,
	// re-indexing of merged shards included.
	IngestSec float64 `json:"ingest_seconds"`
	// PrunedQueryUs is the mean of an in-domain query no zone map
	// intersects (the cost of walking the shard list); TailQueryUs of a
	// 2%-wide range over the appended values, which every tail-born
	// shard's zone covers (the cost of fanning out to all of them).
	PrunedQueryUs float64 `json:"mean_query_us_pruned"`
	TailQueryUs   float64 `json:"mean_query_us_tail_range"`
	AnswersMatch  bool    `json:"answers_match_oracle"`
}

// clusteredValues is the shards suite's column: row i holds i give or
// take n/200, so contiguous row ranges have narrow value ranges.
func clusteredValues(n int) []int64 {
	rng := rand.New(rand.NewSource(99))
	noise := int64(n / 200)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) + rng.Int63n(2*noise+1) - noise
	}
	return vals
}

// runShards sweeps shard count × selectivity on clustered data (values
// correlate with row position, as time-ordered loads do, so row-range
// shards carry tight zone maps). The workload confines its predicates
// to the first quarter of the value domain: shards outside it must be
// pruned by their zone maps and perform zero work, which is verified
// through ShardStats and reported per configuration.
func runShards(n, queries int, delta float64) shardsReport {
	rep := shardsReport{
		Host: host(), Timestamp: time.Now().UTC().Format(time.RFC3339),
		Strategy: "PQ", Delta: delta,
	}
	vals := clusteredValues(n)
	hotMax := int64(n / 4) // queries live in the first quarter of the domain

	type qr struct{ lo, hi int64 }
	baseline := map[float64]float64{} // selectivity → shards=1 mean ms
	for _, shards := range []int{1, 2, 4, 8, 16} {
		for _, sel := range []float64{0.001, 0.01, 0.1} {
			width := int64(float64(n) * sel)
			if width < 1 {
				width = 1
			}
			qrng := rand.New(rand.NewSource(7))
			qs := make([]qr, queries)
			for i := range qs {
				lo := qrng.Int63n(hotMax)
				qs[i] = qr{lo, lo + width}
			}
			sh, err := progidx.NewHandle(vals, progidx.Options{
				Strategy: progidx.StrategyQuicksort, Delta: delta, Shards: shards,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			res := ShardResult{Shards: shards, Selectivity: sel, N: n, Queries: queries, AnswersMatch: true}
			for i, q := range qs {
				start := time.Now()
				ans, err := sh.Execute(progidx.Request{Pred: progidx.Range(q.lo, q.hi)})
				dt := time.Since(start).Seconds()
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				res.TotalSec += dt
				if i == 0 {
					res.FirstQueryMs = dt * 1000
				}
				res.WorkSec += ans.Stats.WorkSeconds
				want := column.AggRangeBranching(vals, q.lo, q.hi)
				if ans.Sum != want.Sum || ans.Count != want.Count {
					res.AnswersMatch = false
				}
			}
			res.MeanQueryMs = res.TotalSec / float64(queries) * 1000
			res.PrunedZeroWork = true
			for _, si := range sh.ShardStats() {
				if si.Executes > 0 {
					res.ExecutedShards++
					continue
				}
				res.PrunedShards++
				if si.Refines != 0 || si.Heat != 0 || si.Progress != 0 {
					res.PrunedZeroWork = false
				}
				// A shard was only allowed to idle if its zone map
				// really misses the hot region (his reach at most
				// hotMax-1+width).
				if si.MinValue < hotMax+width {
					res.PrunedZeroWork = false
				}
			}
			if shards == 1 {
				baseline[sel] = res.MeanQueryMs
			}
			if base := baseline[sel]; base > 0 && res.MeanQueryMs > 0 {
				res.SpeedupVsUnsharded = base / res.MeanQueryMs
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep
}

// runGrowth is the ingest-growth sweep of the shards suite. Batch b of a
// run holds the values base + i·appends + b, so every batch — and hence
// every tail-born shard — spans the whole appended value range: a range
// query over the appended values survives all of them, and its cost
// tracks the shard count the seal path leaves behind. The values
// between the loaded domain and base belong to no shard's zone.
func runGrowth(n, queries int, delta float64) []GrowthResult {
	const loaded, appendRows = 4, 256
	loadedVals := clusteredValues(n)
	base := int64(4 * n)
	var out []GrowthResult
	for _, appends := range []int{100, 1000, 4000} {
		logical := append(make([]int64, 0, n+appends*appendRows), loadedVals...)
		sh, err := progidx.NewHandle(append([]int64(nil), loadedVals...), progidx.Options{
			Strategy: progidx.StrategyQuicksort, Delta: delta, Shards: loaded,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		drain := func() {
			for !sh.Converged() {
				sh.RefineStep()
			}
		}
		drain()
		res := GrowthResult{
			LoadedShards: loaded, N: n, SealRows: n / loaded, Appends: appends, AppendRows: appendRows,
			ShardsBound: shard.MaxShards(loaded, appends*appendRows, n/loaded), AnswersMatch: true,
		}
		batch := make([]int64, appendRows)
		start := time.Now()
		for b := 0; b < appends; b++ {
			for i := range batch {
				batch[i] = base + int64(i*appends+b)
			}
			if err := sh.Append(batch); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			logical = append(logical, batch...)
			drain()
		}
		res.IngestSec = time.Since(start).Seconds()
		res.ShardsAfter = sh.Shards()

		span := int64(appends * appendRows)
		qrng := rand.New(rand.NewSource(7))
		measure := func(next func() (lo, hi int64)) float64 {
			var total time.Duration
			for q := 0; q < queries; q++ {
				l, h := next()
				t0 := time.Now()
				ans, err := sh.Execute(progidx.Request{Pred: progidx.Range(l, h)})
				total += time.Since(t0)
				want := column.AggRangeBranching(logical, l, h)
				if err != nil || ans.Sum != want.Sum || ans.Count != want.Count {
					res.AnswersMatch = false
				}
			}
			return float64(total.Microseconds()) / float64(queries)
		}
		res.PrunedQueryUs = measure(func() (int64, int64) {
			lo := 2*int64(n) + qrng.Int63n(int64(n))
			return lo, lo + 1000
		})
		res.TailQueryUs = measure(func() (int64, int64) {
			lo := base + qrng.Int63n(span)
			return lo, lo + span/50
		})
		out = append(out, res)
	}
	return out
}

// timeBest returns the fastest of reps timings of fn, in seconds.
func timeBest(reps int, fn func()) float64 {
	best := 1e300
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		fn()
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	return best
}

func runKernels(n, reps int) kernelsReport {
	rng := rand.New(rand.NewSource(42))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(int64(n))
	}
	lo, hi := int64(n)/4, 3*int64(n)/4
	want := column.AggRange(vals, lo, hi, column.AggAll)
	wantSum := column.SumRange(vals, lo, hi)

	rep := kernelsReport{Host: host(), N: n, Reps: reps, Timestamp: time.Now().UTC().Format(time.RFC3339)}
	var sink column.Agg
	var sinkRes column.Result

	serialAgg := timeBest(reps, func() { sink = column.AggRange(vals, lo, hi, column.AggAll) })
	rep.Results = append(rep.Results, KernelResult{
		Kernel: "AggRange", Workers: 1,
		NsPerOp:      serialAgg * 1e9,
		ElemsPerSec:  float64(n) / serialAgg,
		SpeedupVsSer: 1, Identical: sink == want,
	})
	serialSum := timeBest(reps, func() { sinkRes = column.SumRange(vals, lo, hi) })
	rep.Results = append(rep.Results, KernelResult{
		Kernel: "SumRange", Workers: 1,
		NsPerOp:      serialSum * 1e9,
		ElemsPerSec:  float64(n) / serialSum,
		SpeedupVsSer: 1, Identical: sinkRes == wantSum,
	})

	for _, workers := range []int{1, 2, 4, 8} {
		p := parallel.New(workers)
		t := timeBest(reps, func() { sink = column.ParAggRange(p, vals, lo, hi, column.AggAll) })
		rep.Results = append(rep.Results, KernelResult{
			Kernel: "ParAggRange", Workers: workers,
			NsPerOp:      t * 1e9,
			ElemsPerSec:  float64(n) / t,
			SpeedupVsSer: serialAgg / t,
			Identical:    sink == want,
		})
		t = timeBest(reps, func() { sinkRes = column.ParSumRange(p, vals, lo, hi) })
		rep.Results = append(rep.Results, KernelResult{
			Kernel: "ParSumRange", Workers: workers,
			NsPerOp:      t * 1e9,
			ElemsPerSec:  float64(n) / t,
			SpeedupVsSer: serialSum / t,
			Identical:    sinkRes == wantSum,
		})
	}
	rep.Encodings = runEncodings(n, reps)
	return rep
}

// runEncodings measures the compressed storage layer on two data
// shapes: uniform values in [0, n) (the kernel benchmark's column —
// FOR-BP territory, ~log2(n) delta bits) and a low-cardinality column
// whose 1000 distinct values are spread over a 40-bit domain (dict
// territory: FOR-BP would need ~40 bits, codes need 10). Each segment
// scans the middle half of its value domain under both aggregate masks
// and is compared against the raw kernel for time and for answer bits.
func runEncodings(n, reps int) []EncodingResult {
	rng := rand.New(rand.NewSource(42))
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = rng.Int63n(int64(n))
	}
	drng := rand.New(rand.NewSource(43))
	dictVals := make([]int64, 1000)
	for i := range dictVals {
		dictVals[i] = drng.Int63n(1 << 40)
	}
	skewed := make([]int64, n)
	for i := range skewed {
		skewed[i] = dictVals[drng.Intn(len(dictVals))]
	}

	datasets := []struct {
		name string
		vals []int64
	}{{"uniform", uniform}, {"skewed_lowcard", skewed}}
	masks := []struct {
		name string
		aggs column.Aggregates
	}{
		{"sum_count", column.AggSum | column.AggCount},
		{"all", column.AggAll},
	}
	modes := []struct {
		name string
		mode encode.Mode
	}{
		{"forbp", encode.ModeFORBP},
		{"dict", encode.ModeDict},
		{"auto", encode.ModeAuto},
	}

	var out []EncodingResult
	var sink column.Agg
	for _, ds := range datasets {
		mn, mx := column.MinMax(ds.vals)
		lo := mn + (mx-mn)/4
		hi := mn + 3*(mx-mn)/4
		for _, m := range masks {
			want := column.AggRange(ds.vals, lo, hi, m.aggs)
			rawT := timeBest(reps, func() { sink = column.AggRange(ds.vals, lo, hi, m.aggs) })
			for _, md := range modes {
				seg, err := encode.New(ds.vals, mn, mx, md.mode)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				t := timeBest(reps, func() { sink = seg.AggRange(lo, hi, m.aggs) })
				out = append(out, EncodingResult{
					Data: ds.name, Encoding: md.name, Kind: seg.Kind().String(),
					Aggs: m.name, N: n,
					WidthBits:        int(seg.Width()),
					BytesPerRow:      seg.BytesPerRow(),
					RawBytesPerRow:   8,
					CompressionRatio: 8 / seg.BytesPerRow(),
					ResidentMB:       float64(seg.SizeBytes()) / (1 << 20),
					RawResidentMB:    float64(n) * 8 / (1 << 20),
					ScanNsPerOp:      t * 1e9,
					RawScanNsPerOp:   rawT * 1e9,
					ScanPenaltyVsRaw: t/rawT - 1,
					Identical:        sink == want,
				})
			}
		}
	}
	return out
}

// PlannerResult is one driver policy's run over the shared composite
// workload: the planner's own choice, or one pinned driving column
// (ExplainConj forceDriver — the worst of these is the baseline the
// planner must beat).
type PlannerResult struct {
	Driver            string  `json:"driver"` // "planner" or a pinned column
	Queries           int     `json:"queries"`
	MeanQueryMs       float64 `json:"mean_query_ms"`
	TotalSec          float64 `json:"total_seconds"`
	ScannedBlocksMean float64 `json:"scanned_blocks_mean"`
	PrunedBlocksMean  float64 `json:"pruned_blocks_mean"`
	SlowdownVsPlanner float64 `json:"slowdown_vs_planner"`
	AnswersMatch      bool    `json:"answers_match_oracle"`
}

type plannerReport struct {
	Host      Host     `json:"host"`
	Timestamp string   `json:"timestamp"`
	N         int      `json:"n"`
	Columns   []string `json:"columns"`
	Encoding  string   `json:"encoding"`
	// TargetSelectivity is the workload design point; ActualSelectivity
	// is the measured mean fraction of rows matching the whole
	// conjunction.
	TargetSelectivity float64 `json:"target_selectivity"`
	ActualSelectivity float64 `json:"actual_selectivity_mean"`
	// PlannerPicks histograms which column the planner chose to drive.
	PlannerPicks map[string]int  `json:"planner_driver_picks"`
	Results      []PlannerResult `json:"results"`
	// SpeedupVsWorst is mean_query_ms of the slowest pinned driver over
	// the planner's mean — the headline driver-choice payoff.
	SpeedupVsWorst float64 `json:"speedup_vs_worst_column"`
}

// runPlanner measures what picking the driving column is worth on the
// correlated three-column dataset: the workload is a 0.1%-selectivity
// range on the correlated column b conjoined with a ~99%-pass filter
// on the uniform column c, aggregating over the clustered a. The same
// queries run under the planner and under each pinned driver; the
// FOR-BP encoding makes block decodes real work, so driving by the
// unselective column (which touches every involved column in every
// surviving block) pays its full price.
func runPlanner(n, queries int) plannerReport {
	cols := []string{"a", "b", "c"}
	rep := plannerReport{
		Host: host(), Timestamp: time.Now().UTC().Format(time.RFC3339),
		N: n, Columns: cols, Encoding: "forbp",
		TargetSelectivity: 0.001,
		PlannerPicks:      map[string]int{},
	}
	flat := data.MultiColumn(n, len(cols), 1234)
	tbl, err := plan.New("bench", cols, flat, progidx.Options{
		Strategy: progidx.StrategyQuicksort, Delta: 0.25,
		Encoding: progidx.EncodingFORBP,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	width := int64(float64(n) * rep.TargetSelectivity)
	if width < 1 {
		width = 1
	}
	cMin := int64(n / 100)
	qrng := rand.New(rand.NewSource(17))
	conjs := make([]query.Conjunction, queries)
	wantSum := make([]int64, queries)
	wantCount := make([]int64, queries)
	for i := range conjs {
		lo := qrng.Int63n(int64(n))
		conjs[i] = query.Conjunction{
			Preds: []query.ColPredicate{
				{Col: "b", Pred: progidx.Range(lo, lo+width)},
				{Col: "c", Pred: progidx.AtLeast(cMin)},
			},
			Target: "a",
			Aggs:   progidx.Sum | progidx.Count,
		}
		for r := 0; r < n; r++ {
			b, c := flat[r*3+1], flat[r*3+2]
			if b >= lo && b <= lo+width && c >= cMin {
				wantSum[i] += flat[r*3]
				wantCount[i]++
			}
		}
	}

	var matchedRows int64
	for _, driver := range []string{"planner", "b", "c"} {
		force := driver
		if driver == "planner" {
			force = ""
		}
		res := PlannerResult{Driver: driver, Queries: queries, AnswersMatch: true}
		var scanned, pruned int64
		for i, c := range conjs {
			start := time.Now()
			ans, ch, err := tbl.ExplainConj(c, force)
			res.TotalSec += time.Since(start).Seconds()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if ans.Sum != wantSum[i] || ans.Count != wantCount[i] {
				res.AnswersMatch = false
			}
			scanned += int64(ch.ScannedBlocks)
			pruned += int64(ch.PrunedBlocks)
			if driver == "planner" {
				rep.PlannerPicks[ch.Driver]++
				matchedRows += int64(ch.MatchedRows)
			}
		}
		res.MeanQueryMs = res.TotalSec / float64(queries) * 1000
		res.ScannedBlocksMean = float64(scanned) / float64(queries)
		res.PrunedBlocksMean = float64(pruned) / float64(queries)
		rep.Results = append(rep.Results, res)
	}
	rep.ActualSelectivity = float64(matchedRows) / float64(queries) / float64(n)

	planner := rep.Results[0].MeanQueryMs
	worst := planner
	for _, r := range rep.Results[1:] {
		if r.MeanQueryMs > worst {
			worst = r.MeanQueryMs
		}
	}
	for i := range rep.Results {
		if planner > 0 {
			rep.Results[i].SlowdownVsPlanner = rep.Results[i].MeanQueryMs / planner
		}
	}
	if planner > 0 {
		rep.SpeedupVsWorst = worst / planner
	}
	return rep
}

// writeJSON writes one artifact. It refuses to replace an artifact that
// was recorded on more CPUs than this host has: the parallel figures in
// the committed file would silently become the weaker machine's.
func writeJSON(path string, v any) {
	if old, err := os.ReadFile(path); err == nil {
		var prev struct {
			Host Host `json:"host"`
		}
		if json.Unmarshal(old, &prev) == nil && prev.Host.NumCPU > runtime.NumCPU() {
			fmt.Fprintf(os.Stderr, "refusing to overwrite %s: recorded on %d CPUs, this host has %d (use -out to write elsewhere)\n",
				path, prev.Host.NumCPU, runtime.NumCPU())
			os.Exit(1)
		}
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func main() {
	var (
		n      = flag.Int("n", 10_000_000, "kernel benchmark column size")
		delta  = flag.Float64("delta", 0.25, "shard sweep delta")
		reps   = flag.Int("reps", 3, "timing repetitions (best-of)")
		shardN = flag.Int("shardn", 2_000_000, "shard sweep column size")
		shardQ = flag.Int("shardqueries", 96, "shard sweep queries per configuration")
		planN  = flag.Int("plannern", 2_000_000, "planner suite table size (rows × 3 columns)")
		planQ  = flag.Int("plannerqueries", 96, "planner suite queries per driver policy")
		outDir = flag.String("out", ".", "output directory for the JSON artifacts")
		suite  = flag.String("suite", "all", "kernels|shards|planner|all")
	)
	flag.Parse()

	if runtime.NumCPU() == 1 {
		fmt.Println("note: single-CPU host — parallel speedup figures in these runs are not meaningful; re-run on a multi-core machine for real numbers")
	}

	if *suite == "all" || *suite == "kernels" {
		rep := runKernels(*n, *reps)
		writeJSON(filepath.Join(*outDir, "BENCH_kernels.json"), rep)
		for _, r := range rep.Results {
			fmt.Printf("  %-12s workers=%d  %8.2f ms/op  %6.2fx  identical=%v\n",
				r.Kernel, r.Workers, r.NsPerOp/1e6, r.SpeedupVsSer, r.Identical)
		}
		for _, r := range rep.Encodings {
			fmt.Printf("  %-14s %-5s→%-5s %-9s %4.2f B/row (%4.2fx)  penalty=%+6.1f%%  identical=%v\n",
				r.Data, r.Encoding, r.Kind, r.Aggs, r.BytesPerRow, r.CompressionRatio,
				r.ScanPenaltyVsRaw*100, r.Identical)
		}
	}
	if *suite == "all" || *suite == "shards" {
		rep := runShards(*shardN, *shardQ, *delta)
		rep.Growth = runGrowth(*shardN, *shardQ, *delta)
		writeJSON(filepath.Join(*outDir, "BENCH_shards.json"), rep)
		for _, r := range rep.Results {
			fmt.Printf("  shards=%-2d sel=%-6g mean=%7.3fms  speedup=%5.2fx  pruned=%d/%d zero_work=%v  match=%v\n",
				r.Shards, r.Selectivity, r.MeanQueryMs, r.SpeedupVsUnsharded,
				r.PrunedShards, r.Shards, r.PrunedZeroWork, r.AnswersMatch)
		}
		for _, r := range rep.Growth {
			fmt.Printf("  growth appends=%-4d×%d  shards=%d (bound %d)  ingest=%6.2fs  pruned=%6.2fus  tail-range=%7.2fus  match=%v\n",
				r.Appends, r.AppendRows, r.ShardsAfter, r.ShardsBound, r.IngestSec, r.PrunedQueryUs, r.TailQueryUs, r.AnswersMatch)
		}
	}
	if *suite == "all" || *suite == "planner" {
		rep := runPlanner(*planN, *planQ)
		writeJSON(filepath.Join(*outDir, "BENCH_planner.json"), rep)
		for _, r := range rep.Results {
			fmt.Printf("  driver=%-8s mean=%7.3fms  slowdown=%5.2fx  blocks=%.0f scanned/%.0f pruned  match=%v\n",
				r.Driver, r.MeanQueryMs, r.SlowdownVsPlanner,
				r.ScannedBlocksMean, r.PrunedBlocksMean, r.AnswersMatch)
		}
		fmt.Printf("  planner picks=%v  actual_sel=%.5f  speedup_vs_worst=%.2fx\n",
			rep.PlannerPicks, rep.ActualSelectivity, rep.SpeedupVsWorst)
	}
}
