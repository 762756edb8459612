package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > percentile(xs, 90) {
			beyond++
		}
	}
	if beyond != minTail {
		t.Errorf("%d samples beyond p90 of 100, want %d", beyond, minTail)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 = %v, want the maximum", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	// Per-target medians 2 and 8: their geometric mean is 4, whatever
	// the targets' query counts.
	byTarget := map[int][]float64{0: {1, 2, 3}, 1: {8}}
	if got := geoMeanOfMedians(byTarget); got < 4-1e-9 || got > 4+1e-9 {
		t.Errorf("geoMeanOfMedians = %v, want 4", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Query: 1, Name: spanQuery, Start: 0, End: 100},
		// Two concurrent children overlap on [30, 40): it counts once.
		{ID: 2, Parent: 1, Query: 1, Name: spanDetect, Start: 10, End: 40},
		{ID: 3, Parent: 1, Query: 1, Name: spanDetect, Start: 30, End: 60},
		// A child running past its parent's end is clipped to it.
		{ID: 4, Parent: 1, Query: 1, Name: spanL2Get, Start: 90, End: 120},
		// A grandchild is not a child: only direct children are subtracted.
		{ID: 5, Parent: 2, Query: 1, Name: spanHTTPBatch, Start: 70, End: 80},
		// Warmup spans (query 0) are not indexed.
		{ID: 6, Parent: 1, Query: 0, Name: spanDetect, Start: 60, End: 90},
	}
	ix := indexSpans(spans)
	if got, want := ix.selfSeconds(spans[0]), 40e-9; !near(got, want) {
		t.Errorf("self = %v, want %v", got, want)
	}
	if got, want := ix.selfSeconds(spans[0], spanDetect), 50e-9; !near(got, want) {
		t.Errorf("self excluding detect only = %v, want %v", got, want)
	}
	if got := coveredWithin(0, 100, nil); got != 0 {
		t.Errorf("no children cover %d", got)
	}
}

func near(a, b float64) bool { return a-b < 1e-15 && b-a < 1e-15 }

func TestTraceCrossesTheLoopbackHop(t *testing.T) {
	tr := newTracer()
	srv := httptest.NewServer(tracedHandler(tr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})))
	defer srv.Close()
	wire := &wireCounter{next: http.DefaultTransport}
	client := &http.Client{Transport: wire}

	ctx, q := tr.beginQuery(context.Background(), 7)
	ctx, call := tr.begin(ctx, spanHTTPBatch)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL, strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	call.end(3)
	q.end(3)

	var replica, batch Span
	for _, s := range tr.snapshot() {
		switch s.Name {
		case spanReplica:
			replica = s
		case spanHTTPBatch:
			batch = s
		}
	}
	if replica.Query != 7 || replica.Parent != batch.ID || batch.ID == 0 {
		t.Errorf("server span %+v is not a child of client span %+v in query 7", replica, batch)
	}
	if wire.reqBytes.Load() != 3 || wire.rspBytes.Load() != 2 {
		t.Errorf("wire counted %d/%d bytes, want 3/2", wire.reqBytes.Load(), wire.rspBytes.Load())
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	cold := []fleetTarget{{0, "bus"}, {0, "truck"}, {1, "bus"}, {1, "rider"}}
	a := fleetPlan(5, fleetRate, 20*time.Second, -1, cold)
	b := fleetPlan(5, fleetRate, 20*time.Second, -1, cold)
	if len(a) < 100 || !reflect.DeepEqual(a, b) {
		t.Fatalf("fleetPlan is not a function of its seed (%d vs %d arrivals)", len(a), len(b))
	}
	if replay := fleetPlan(5, fleetRate, 0, len(a), cold); !reflect.DeepEqual(replay, a) {
		t.Error("a replay of the same count differs from the timed plan")
	}
	if last := a[len(a)-1].at; last >= 20*time.Second || last < 19*time.Second {
		t.Errorf("last arrival at %v, want near the end of the 20s window", last)
	}
	if c := fleetPlan(6, fleetRate, 20*time.Second, -1, cold); reflect.DeepEqual(a[:10], c[:10]) {
		t.Error("another seed gave the same arrivals")
	}
	hot := 0
	for _, x := range a {
		for _, h := range fleetHot {
			if x.target == h {
				hot++
			}
		}
	}
	if hot != len(a)/2 {
		t.Errorf("%d hot arrivals of %d, want half", hot, len(a))
	}

	// Closed-loop plans: whole seeded rounds over every target.
	const n = 43
	for round := 0; round < 3; round++ {
		seen := map[int]bool{}
		for j := 0; j < n; j++ {
			i := round*n + j
			got := roundRobin(9, n, i)
			if got != roundRobin(9, n, i) {
				t.Fatal("roundRobin is not a function of its seed")
			}
			seen[got] = true
		}
		if len(seen) != n {
			t.Errorf("round %d covered %d of %d targets", round, len(seen), n)
		}
	}
	if mix(9, 3) != mix(9, 3) || mix(9, 3) == mix(10, 3) || mix(9, 3) == mix(9, 4) {
		t.Error("mix does not derive distinct, repeatable query seeds")
	}
}

// TestBenchmarkJSONMirrorsTheHarness keeps BENCHMARK.json, which the
// benchmark is run from, in step with the metrics the harness prints.
func TestBenchmarkJSONMirrorsTheHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, harness %q", got, workloadNames())
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", c.name, i, j, d)
			}
		}
	}
}
