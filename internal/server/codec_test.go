package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/column"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/query"
)

// FuzzQueryRequest holds the served query path — the handler's
// decoding, the route or the queue, and the answer encoder — to its
// reference: the body decoded by json.NewDecoder, converted by
// conjunction, executed by Scheduler.ExecuteConj and encoded by
// encoding/json. A refused body must get the same status and error body;
// an accepted one the same aggregates. The table is quiescent, so most
// answers take the route. The committed corpus
// (testdata/fuzz/FuzzQueryRequest) seeds it with the wire tests' and the
// benchmark's bodies and encoding/json's corners: case-folded keys,
// unknown and null members, escapes, invalid UTF-8, repeated keys,
// numbers an int64 refuses, trailing bytes.
func FuzzQueryRequest(f *testing.F) {
	srv := New(Config{Logger: slog.New(slog.DiscardHandler)})
	f.Cleanup(srv.Close)
	if _, err := srv.Load("f", data.MultiColumn(2000, 3, 1), catalog.Options{Strategy: plan.StrategyQuicksort, Delta: 1, Columns: []string{"a", "b", "c"}}); err != nil {
		f.Fatal(err)
	}
	sched, _ := srv.Scheduler("f")
	awaitQuiescent(f, sched)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/tables/f/query", bytes.NewReader(body))
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		h.ServeHTTP(got, req)

		var q QueryRequest
		var ans query.Answer
		var info ExecInfo
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&q); err != nil {
			writeError(want, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		} else if c, err := q.conjunction(); err != nil {
			writeError(want, http.StatusBadRequest, err)
		} else if ans, info, _, err = sched.ExecuteConj(context.Background(), c, time.Time{}, false); err != nil {
			srv.writeSchedError(want, req, sched, "f", err)
		}
		if got.Code != want.Code || (want.Code != http.StatusOK && !bytes.Equal(got.Body.Bytes(), want.Body.Bytes())) {
			t.Fatalf("%q: handler answers %d %s, reference %d %s", body, got.Code, got.Body, want.Code, want.Body)
		}
		if want.Code != http.StatusOK {
			return
		}
		var resp QueryResponse
		if err := json.Unmarshal(got.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%q: handler answers %s: %v", body, got.Body, err)
		}
		ref := queryResponse(ans, info)
		resp.Stats, resp.BatchSize, resp.QueueMicros = StatsJSON{}, 0, 0
		ref.Stats, ref.BatchSize, ref.QueueMicros = StatsJSON{}, 0, 0
		if !reflect.DeepEqual(resp, ref) {
			t.Fatalf("%q: handler answers %s, reference %+v", body, got.Body, ref)
		}
	})
}

// TestQueryResponseEncoding holds the answer encoder to the byte to
// json.NewEncoder(w).Encode of the same QueryResponse, over random
// answers: every optional aggregate requested and not, over matches and
// none, and floats at encoding/json's format cutoffs, signed zero,
// subnormals and integral values.
func TestQueryResponseEncoding(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e21, 9.99e20, 1e20,
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, math.MaxFloat64,
		1, 2, 123456789, 0.1, 0.25, 1.0 / 3, -1.5e-9, -4e22}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 4096}
	rng := rand.New(rand.NewSource(1))
	float := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return floats[rng.Intn(len(floats))]
	}
	integer := func() int64 {
		if rng.Intn(2) == 0 {
			return rng.Int63() - rng.Int63()
		}
		return ints[rng.Intn(len(ints))]
	}
	for i := 0; i < 5000; i++ {
		ans := query.Answer{
			Aggs: column.Aggregates(rng.Intn(32)), Sum: integer(), Count: integer(),
			Min: integer(), Max: integer(), Avg: float(),
			Stats: query.Stats{
				Phase: query.Phase(rng.Intn(6)), Delta: float(), WorkSeconds: float(),
				Workers: int(integer()), ShardsScanned: int(integer()) * rng.Intn(2), ShardsPruned: int(integer()) * rng.Intn(2),
			},
		}
		info := ExecInfo{Batch: int(integer()), QueueWait: time.Duration(integer())}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(queryResponse(ans, info)); err != nil {
			t.Fatal(err)
		}
		if got := appendAnswer(nil, ans, info); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoder wrote\n%s\nencoding/json\n%s", got, want.Bytes())
		}
	}
}
