package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

var runners = map[string]func(config, int64, bool) (*result, error){
	"converge": runConverge,
	"steady":   runSteady,
	"conj":     runConj,
	"ingest":   runIngest,
}

// line is the last line of a run's standard output, the form the
// driver reads.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "converge | steady | conj | ingest | all")
	seed := flag.Int64("seed", 1, "seed of the generated data and queries")
	seconds := flag.Int("seconds", 0, "measured window per workload (default: BENCHMARK.json's run_seconds)")
	trace := flag.Int("trace", 0, "1: trace every request and report the per-layer metrics")
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark's contract")
	outDir := flag.String("dir", "benchmark/out", "directory for trace files and the ingest data directory")
	out := flag.String("out", "", "append the runs to this JSON file, for -compare")
	cmp := flag.Bool("compare", false, "compare two -out files, given as arguments: the second is judged against the first")
	flag.Parse()

	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		a, err := readDocument(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readDocument(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		regressed, err := compare(os.Stdout, sp, a, b)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	cfg := fullConfig(*seconds, *outDir)
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	var runs []*result
	for _, name := range names {
		run, ok := runners[name]
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		res, err := run(cfg, *seed, *trace == 1)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		res.set("failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
		if err := printRun(sp, res); err != nil {
			fatal(err)
		}
		runs = append(runs, res)
	}
	if *out != "" {
		if err := appendRuns(*out, runs); err != nil {
			fatal(err)
		}
	}
}

// printRun writes every measured metric by name with its unit, then the
// driver's line.
func printRun(sp *spec, res *result) error {
	reported, err := sp.report(res)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d traced=%v\n", res.Workload, res.Seed, res.Traced)
	for _, name := range names {
		m, _ := sp.find(name)
		samples := ""
		if n, ok := res.Samples[name]; ok {
			samples = fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Printf("%-36s %16.6f %-6s%s\n", name, res.Metrics[name], m.Unit, samples)
	}
	if res.Error != "" {
		fmt.Printf("first failure: %s\n", res.Error)
	}
	out, err := json.Marshal(line{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: reported})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
