package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/server"
)

// config sizes a run. full is what BENCHMARK.json's command measures;
// the tier-1 test runs tiny.
type config struct {
	window time.Duration // measured window per workload
	outDir string        // trace files and the ingest data directory

	convergeN      int // rows per cold table
	episodeQueries int // queries per convergence episode
	steadyN        int
	conjN          int
	ingestN        int

	clients    int     // closed-loop clients and open-loop connections; never above nproc
	rateLo     float64 // steady open-loop rates, requests per second
	rateHi     float64
	appendRows int // rows per ingest append
	setupReps  int // set-ups per run; setup_s is their median
	coldProbes int // cold tables timed for first_query_ms
	recoveries int // recoveries of the ingest data directory
	replayOps  int // requests re-issued at each boundary in a traced run
}

// The open-loop rates were frozen from the closed-loop throughput this
// box measured at the commit that added the benchmark (≈24 000
// queries/s): about a fifth and just under half of it. They stay fixed
// so that latency at a given rate compares across commits.
const (
	frozenRateLo = 8000
	frozenRateHi = 18000
)

func fullConfig(seconds int, outDir string) config {
	return config{
		window:         time.Duration(seconds) * time.Second,
		outDir:         outDir,
		convergeN:      4_000_000,
		episodeQueries: 300,
		steadyN:        4_000_000,
		conjN:          1_000_000,
		ingestN:        2_000_000,
		clients:        2,
		rateLo:         frozenRateLo,
		rateHi:         frozenRateHi,
		appendRows:     256,
		setupReps:      3,
		coldProbes:     11,
		recoveries:     5,
		replayOps:      2000,
	}
}

func tinyConfig(outDir string) config {
	return config{
		window:         600 * time.Millisecond,
		outDir:         outDir,
		convergeN:      20_000,
		episodeQueries: 60,
		steadyN:        20_000,
		conjN:          20_000,
		ingestN:        20_000,
		clients:        2,
		rateLo:         500,
		rateHi:         1000,
		appendRows:     64,
		setupReps:      2,
		coldProbes:     2,
		recoveries:     2,
		replayOps:      100,
	}
}

// metric is one reported number with the unit BENCHMARK.json gives it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run. Metrics holds whatever the run
// measured; which of them are printed, and their units, is
// BENCHMARK.json's say (spec.report).
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is how many timings stand behind a latency metric.
	Samples map[string]int `json:"samples,omitempty"`
	Error   string         `json:"error,omitempty"` // first failed operation
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Traced: traced,
		Metrics: make(map[string]float64), Samples: make(map[string]int)}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

func (r *result) setN(name string, v float64, samples int) {
	r.set(name, v)
	r.Samples[name] = samples
}

// count folds a window's operations into the run's totals.
func (r *result) count(m merged) {
	r.Attempted += m.attempted
	r.Failed += m.failed
	if r.Error == "" && m.firstErr != nil {
		r.Error = m.firstErr.Error()
	}
}

func (r *result) countOne(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if r.Error == "" {
			r.Error = err.Error()
		}
	}
}

// host is an in-process server behind a real loopback listener: the
// benchmark's requests cross the kernel's TCP stack and net/http, as a
// client's would.
type host struct {
	srv  *server.Server
	hs   *http.Server
	addr string
	done chan struct{}
	once sync.Once
}

func startHost(cfg server.Config) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(cfg)
	h := &host{srv: srv, hs: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln) // returns once close is called; the error says only that
	}()
	return h, nil
}

// close stops the listener and the server the hard way — no drain and,
// on a durable server, no final checkpoint — and waits for both. A
// second call does nothing.
func (h *host) close() {
	h.once.Do(func() {
		h.hs.Close()
		<-h.done
		h.srv.Close()
	})
}

func boolPtr(b bool) *bool { return &b }

// load registers a table and returns how long the catalog took.
func (h *host) load(name string, values []int64, opts catalog.Options) (*catalog.Table, time.Duration, error) {
	start := time.Now()
	t, err := h.srv.Load(name, values, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("load %s: %w", name, err)
	}
	return t, time.Since(start), nil
}

// usage is a reading of the process's cumulative resource counters.
type usage struct {
	cpu     time.Duration // user + system, every thread, client included
	gcCPU   float64       // seconds
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	u := usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gc[0].Value.Float64()
	}
	return u
}

// heapInUse forces a collection and returns the live heap.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timed runs fn and returns how long it took.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// resident reports the table's memory per row: the live heap with the
// table still loaded, less the live heap before its data was
// generated. The caller drops its own references to the data and the
// oracle first, so that what remains is what the server holds.
func resident(before uint64, rows int) float64 {
	after := heapInUse()
	if after < before {
		return 0
	}
	return float64(after-before) / float64(rows)
}

// repeatSetup sets a workload up reps times, tearing every set-up but
// the last down again, and returns the last one with each one's
// duration. One set-up is too few samples for setup_s to be compared
// across commits.
func repeatSetup[T any](reps int, setup func() (T, error), teardown func(T)) (last T, took []time.Duration, err error) {
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(last)
			var none T
			last = none // or the old tables stay reachable, and in the new set-up's heap baseline
		}
		start := time.Now()
		if last, err = setup(); err != nil {
			return last, nil, err
		}
		took = append(took, time.Since(start))
	}
	return last, took, nil
}

// coldFirstQueries reports first_query_ms: it loads a cold copy of the
// workload's table n times and times the first query each one answers.
// The copies are named apart from the workload's own table and dropped
// again.
func coldFirstQueries(h *host, n int, st stream, res *result, load func(name string) error) error {
	const name = "cold"
	c, err := dial(h.addr)
	if err != nil {
		return err
	}
	defer c.close()
	rt := newRoute("/tables/" + name + "/query")
	var out []float64
	var o op
	for i := 0; i < n; i++ {
		if err := load(name); err != nil {
			return err
		}
		o.body = o.body[:0]
		st.next(i, &o)
		// Collect the previous probe's table first: whether a query
		// that allocates the index's first buffers runs beside a
		// collection, and on recycled or fresh pages, otherwise
		// doubles its time at random.
		runtime.GC()
		wantSum, wantCount := st.want(i)
		lat, err := c.ask(rt.plain, o.body, wantSum, wantCount)
		if err != nil {
			err = fmt.Errorf("cold query: %w", err)
		}
		res.countOne(err)
		if err == nil {
			out = append(out, ms(lat))
		}
		if err := h.srv.Drop(name); err != nil {
			return err
		}
	}
	res.setN("first_query_ms", median(out), len(out))
	return nil
}
