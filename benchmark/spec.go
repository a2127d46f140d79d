package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json, the contract the driver holds the benchmark
// to. The benchmark reads its metric names, units, directions and
// bounds from it, so the two cannot drift apart.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) find(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// report is the metrics of one kind that a run must print: every
// end-to-end metric for an untraced run — a missing one is an error —
// and every per-layer metric for a traced run, where a layer the
// workload bypasses reads 0.
func (s *spec) report(r *result) (map[string]metric, error) {
	out := make(map[string]metric)
	list := s.EndToEnd
	if r.Traced {
		list = s.PerLayer
	}
	for _, m := range list {
		got, ok := r.Metrics[m.Name]
		if !ok && !r.Traced {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, m.Name)
		}
		out[m.Name] = metric{Value: got, Unit: m.Unit}
	}
	for name := range r.Metrics {
		if _, ok := s.find(name); !ok {
			return nil, fmt.Errorf("%s: metric %s is not in BENCHMARK.json", r.Workload, name)
		}
	}
	return out, nil
}
