package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strings"
)

// document is what -out writes: the runs of one commit on one box.
// Runs accumulate over invocations, so several seeds make one file.
type document struct {
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Runs       []*result `json:"runs"`
}

func thisBox() document {
	return document{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

func (d *document) sameBox(o *document) error {
	if d.GoVersion != o.GoVersion || d.NumCPU != o.NumCPU || d.GOMAXPROCS != o.GOMAXPROCS {
		return fmt.Errorf("results are from different set-ups: %s, %d CPUs, GOMAXPROCS %d against %s, %d CPUs, GOMAXPROCS %d",
			d.GoVersion, d.NumCPU, d.GOMAXPROCS, o.GoVersion, o.NumCPU, o.GOMAXPROCS)
	}
	return nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// appendRuns adds runs to the document at path, creating it if need be.
func appendRuns(path string, runs []*result) error {
	d, err := readDocument(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		box := thisBox()
		d = &box
	case err != nil:
		return err
	default:
		box := thisBox()
		if err := d.sameBox(&box); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	d.Runs = append(d.Runs, runs...)
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// values collects one metric of one workload's untraced runs.
func (d *document) values(workload, name string) []float64 {
	var out []float64
	for _, r := range d.Runs {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			out = append(out, v)
		}
	}
	return out
}

// failedShare is failed ÷ attempted over a workload's runs.
func (d *document) failedShare(workload string) float64 {
	var failed, attempted int
	for _, r := range d.Runs {
		if r.Workload == workload {
			failed, attempted = failed+r.Failed, attempted+r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median; it needs four values to mean anything.
func quartileSpread(xs []float64) (float64, bool) {
	if len(xs) < 4 {
		return 0, false
	}
	s := sortedCopy(xs)
	q := func(p float64) float64 { // the exclusive method, as Python's statistics.quantiles
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	m := median(s)
	if m == 0 {
		return 0, false
	}
	return (q(0.75) - q(0.25)) / m, true
}

// compare prints, per workload and end-to-end metric, both sides'
// medians, their ratio, the bound and a verdict, and reports whether
// anything regressed. b is judged against a.
func compare(w io.Writer, sp *spec, a, b *document) (regressed bool, err error) {
	if err := a.sameBox(b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-9s %-24s %14s %14s %18s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			av, bv := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			am, bm := median(av), median(bv)
			worse := bm/am - 1 // share by which b is worse than a
			if m.Better == "higher" {
				worse = 1 - bm/am
			}
			verdict, regressedHere := "ok", worse > m.Bound
			if regressedHere {
				verdict, regressed = "regressed", true
			}
			// Where a's own runs spread wider than the bound, b being within
			// the bound decides nothing, unless every run of b reads better
			// than every run of a.
			if spread, ok := quartileSpread(av); ok && !regressedHere && spread > m.Bound && !allBetter(bv, av, m.Better) {
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-9s %-24s %14.6g %14.6g %8.4f of %-6.4g %6.2f  %s (%d, %d runs)\n",
				wl.Name, m.Name, am, bm, bm/am, am, m.Bound, verdict, len(av), len(bv))
		}
		if fa, fb := a.failedShare(wl.Name), b.failedShare(wl.Name); fb > fa {
			fmt.Fprintf(w, "%-9s %-24s %14.6g %14.6g %27s  regressed\n", wl.Name, "failed_share", fa, fb, "any rise")
			regressed = true
		}
	}
	// With δ fixed the queries to convergence are counts that repeat
	// exactly; two traced runs of one seed that disagree measured
	// different work.
	for _, name := range exactCounts(sp) {
		bySeed := map[int64]float64{}
		for _, d := range []*document{a, b} {
			for _, r := range d.Runs {
				v, ok := r.Metrics[name]
				if !ok || !r.Traced || r.Workload != "converge" {
					continue
				}
				if was, seen := bySeed[r.Seed]; seen && was != v {
					fmt.Fprintf(w, "%-9s %-24s seed %d: %v in one run, %v in another\n", "converge", name, r.Seed, was, v)
					regressed = true
				}
				bySeed[r.Seed] = v
			}
		}
	}
	return regressed, nil
}

func allBetter(xs, than []float64, better string) bool {
	x, t := sortedCopy(xs), sortedCopy(than)
	if better == "higher" {
		return x[0] > t[len(t)-1]
	}
	return x[len(x)-1] < t[0]
}

// exactCounts lists the per-layer counts that must repeat exactly
// between traced runs.
func exactCounts(sp *spec) []string {
	var names []string
	for _, m := range sp.PerLayer {
		if strings.HasSuffix(m.Name, ".converge_queries") {
			names = append(names, m.Name)
		}
	}
	return names
}
