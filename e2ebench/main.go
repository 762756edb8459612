// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload against the public exsample API for a fixed wall time, checks
// every output, and prints one JSON line with the workload's metrics:
// end-to-end metrics in an untraced run (-trace 0), per-layer metrics in a
// traced run (-trace 1). See README.md for the workloads and metrics.
//
//	go run . -workload adhoc_local -seed 1 -seconds 30 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A run builds its workload environment at least setupRuns times, and
// more until setupBudget of set-up time is spent or setupMax builds are
// done. The reported setup_s is the median; only the last build serves
// the timed pass.
const (
	setupRuns   = 3
	setupMax    = 25
	setupBudget = 2 * time.Second
)

// record is one query's outcome.
type record struct {
	idx    int // position in the workload's query plan
	target int // which of the workload's targets the query asked for
	// due is when the query was due to start: the scheduled arrival in
	// an open loop, the submit time in a closed loop. Latencies count
	// from it.
	due, submit, first, done time.Time
	frames                   int64
	results                  int
	charged                  float64 // charged seconds (Report.TotalSeconds)
	// toR50 and toR90 are the charged seconds until the query held 50% /
	// 90% of its goal set; NaN when never reached.
	toR50, toR90 float64
	err          error
	bad          string // why the output check failed; empty when it passed
}

func (r record) failed() bool { return r.err != nil || r.bad != "" }

func (r record) latency() float64 { return r.done.Sub(r.due).Seconds() }

// runOut is one pass over a workload's plan.
type runOut struct {
	recs       []record
	start, end time.Time
	// genLag lists how late the open-loop generator issued each arrival
	// (empty for closed loops).
	genLag []float64
}

// env is a built workload environment: sources opened, servers up,
// warmup done.
type env interface {
	// run executes the plan until deadline (n < 0) or exactly its first n
	// entries (n >= 0, deadline ignored).
	run(deadline time.Time, n int) (*runOut, error)
	// check runs the output checks outside the timed window, marking
	// failed records.
	check(out *runOut) error
	// layers returns the per-layer metrics of a traced pass.
	layers(out *runOut, ix spanIndex) map[string]float64
	close()
}

// workload is one benchmark workload.
type workload struct {
	name string
	// sloLimit is the fixed latency limit behind slo_met_frac.
	sloLimit time.Duration
	setup    func(seed uint64, t *tracer) (env, error)
}

var workloads = []workload{
	{name: "adhoc_local", sloLimit: adhocSLO, setup: setupAdhoc},
	{name: "fleet_remote", sloLimit: fleetSLO, setup: func(seed uint64, t *tracer) (env, error) {
		return setupFleet(seed, t, fleetRate)
	}},
	{name: "track_local", sloLimit: trackSLO, setup: setupTrack},
}

// metricDef names one reported metric.
type metricDef struct{ name, unit, better string }

// endToEnd is reported by untraced runs, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"frames_per_s", "1/s", "higher"},
	{"latency_p50_s", "s", "lower"},
	{"latency_p90_s", "s", "lower"},
	{"first_result_p50_s", "s", "lower"},
	{"slo_met_frac", "frac", "higher"},
	{"charged_s_to_recall50", "s", "lower"},
	{"charged_s_to_recall90", "s", "lower"},
	{"charged_s_per_query", "s", "lower"},
	{"results_per_kframe", "count", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is reported by traced runs, on every workload; a layer that
// does not run on a workload reports 0.
var perLayer = []metricDef{
	{"engine.self_s_per_frame", "s", "lower"},
	{"engine.frames_per_batch", "count", "higher"},
	{"engine.rounds_per_query", "count", "lower"},
	{"detect.busy_s_per_frame", "s", "lower"},
	{"detect.frames_per_call", "count", "higher"},
	{"router.self_s_per_batch", "s", "lower"},
	{"router.slices_per_batch", "count", "higher"},
	{"router.fast_frame_share", "frac", "higher"},
	{"router.failovers", "count", "lower"},
	{"router.breaker_opens", "count", "lower"},
	{"httpbatch.wire_s_per_batch", "s", "lower"},
	{"httpbatch.req_bytes_per_frame", "B", "lower"},
	{"httpbatch.resp_bytes_per_frame", "B", "lower"},
	{"httpbatch.retries", "count", "lower"},
	{"httpbatch.failures", "count", "lower"},
	{"cachestore.l1_hit_frac", "frac", "higher"},
	{"cachestore.l2_hit_frac", "frac", "higher"},
	{"cachestore.l2_get_s_p50", "s", "lower"},
	{"cachestore.l2_put_s_p50", "s", "lower"},
	{"cachestore.l2_keys_per_call", "count", "higher"},
	{"cachestore.merges", "count", "higher"},
	{"cachestore.l2_errors", "count", "lower"},
	{"httpcache.retries", "count", "lower"},
	{"cache.hit_frac", "frac", "higher"},
	{"sizer.quota_grows", "count", "higher"},
	{"sizer.quota_shrinks", "count", "lower"},
	{"sizer.peak_quota", "count", "higher"},
	{"trackquery.self_s_per_frame", "s", "lower"},
	{"trackquery.coarse_frames", "count", "lower"},
	{"trackquery.refine_frames", "count", "lower"},
	{"trackquery.intervals", "count", "lower"},
	{"trackquery.dense_x", "x", "higher"},
	{"harness.gen_lag_p90_s", "s", "lower"},
	{"harness.gen_lag_max_s", "s", "lower"},
	{"harness.trace_overhead_frac", "frac", "lower"},
	{"harness.failed_frac", "frac", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: adhoc_local, fleet_remote or track_local")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "wall seconds one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spansDir := flag.String("spans-dir", defaultSpansDir(), "where a traced run writes its spans")
	calibrate := flag.String("calibrate", "", "fleet_remote only: comma-separated arrival rates (1/s) to sweep instead of a run")
	flag.Parse()

	if *calibrate != "" {
		if err := runCalibration(*seed, *seconds, *calibrate); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*w, *seed, window, *spansDir)
	} else {
		res, err = untracedRun(*w, *seed, window)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// defaultSpansDir keeps trace output beside the build products.
func defaultSpansDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "spans")
}

// untracedRun measures set-up and one timed pass and reports the
// end-to-end metrics.
func untracedRun(w workload, seed uint64, window time.Duration) (*result, error) {
	var setups []float64
	var spent time.Duration
	var e env
	for i := 0; i < setupMax && (i < setupRuns || spent < setupBudget); i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		e, err = w.setup(seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer e.close()
	out, err := e.run(time.Now().Add(window), -1)
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", w.name, err)
	}
	if err := e.check(out); err != nil {
		return nil, fmt.Errorf("%s check: %w", w.name, err)
	}
	if len(out.recs) < 100 {
		return nil, fmt.Errorf("%s: only %d queries in the window; latency_p90_s needs at least 100", w.name, len(out.recs))
	}
	m, err := endToEndMetrics(w, out)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	m["setup_s"] = median(setups)
	lats := latencies(out)
	p, _ := tailPercentile(len(lats))
	fmt.Fprintf(os.Stderr, "%s: %d queries; highest percentile with >= %d samples beyond it: p%g = %.4fs\n",
		w.name, len(lats), minTail, p, percentile(lats, p))
	return newResult(out, m, endToEnd), nil
}

// tracedRun makes an untraced pass for half the window, then replays the
// same plan prefix on a fresh, traced environment, and reports the
// per-layer metrics of the traced pass.
func tracedRun(w workload, seed uint64, window time.Duration, spansDir string) (*result, error) {
	plain, err := w.setup(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	base, err := plain.run(time.Now().Add(window/2), -1)
	if err == nil {
		err = plain.check(base)
	}
	plain.close()
	if err != nil {
		return nil, fmt.Errorf("%s untraced pass: %w", w.name, err)
	}

	t := newTracer()
	traced, err := w.setup(seed, t)
	if err != nil {
		return nil, fmt.Errorf("%s traced setup: %w", w.name, err)
	}
	defer traced.close()
	out, err := traced.run(time.Time{}, len(base.recs))
	if err == nil {
		err = traced.check(out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
	}
	spans := t.snapshot()
	m := traced.layers(out, indexSpans(spans))
	m["harness.trace_overhead_frac"] = sumLatency(out)/sumLatency(base) - 1
	if len(out.genLag) > 0 {
		m["harness.gen_lag_p90_s"] = percentile(out.genLag, 90)
		m["harness.gen_lag_max_s"] = percentile(out.genLag, 100)
	}
	both := &runOut{recs: append(append([]record(nil), base.recs...), out.recs...)}
	failed := 0
	for _, r := range both.recs {
		if r.failed() {
			failed++
		}
	}
	m["harness.failed_frac"] = float64(failed) / float64(len(both.recs))
	path := filepath.Join(spansDir, w.name+".jsonl.gz")
	n, err := writeSpans(path, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", w.name, n, path)
	return newResult(both, m, perLayer), nil
}

// newResult fills the result line: every metric of defs, 0 for one the
// workload does not produce, with attempted/failed over out's records.
func newResult(out *runOut, m map[string]float64, defs []metricDef) *result {
	res := &result{Correct: true, Attempted: len(out.recs), Metrics: map[string]metricValue{}}
	for _, r := range out.recs {
		if r.failed() {
			res.Failed++
			res.Correct = false
			if r.err != nil {
				fmt.Fprintf(os.Stderr, "query %d failed: %v\n", r.idx, r.err)
			} else {
				fmt.Fprintf(os.Stderr, "query %d wrong: %s\n", r.idx, r.bad)
			}
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return res
}

func latencies(out *runOut) []float64 {
	lats := make([]float64, len(out.recs))
	for i, r := range out.recs {
		lats[i] = r.latency()
	}
	return lats
}

func sumLatency(out *runOut) float64 {
	var s float64
	for _, r := range out.recs {
		s += r.latency()
	}
	return s
}

// endToEndMetrics computes every end-to-end metric except setup_s.
func endToEndMetrics(w workload, out *runOut) (map[string]float64, error) {
	wall := out.end.Sub(out.start).Seconds()
	var frames int64
	var results, met int
	var charged float64
	var firsts []float64
	r50, r90 := map[int][]float64{}, map[int][]float64{}
	for _, r := range out.recs {
		frames += r.frames
		results += r.results
		charged += r.charged
		if !r.failed() && r.done.Sub(r.due) <= w.sloLimit {
			met++
		}
		if !r.first.IsZero() {
			firsts = append(firsts, r.first.Sub(r.due).Seconds())
		}
		if !math.IsNaN(r.toR50) {
			r50[r.target] = append(r50[r.target], r.toR50)
		}
		if !math.IsNaN(r.toR90) {
			r90[r.target] = append(r90[r.target], r.toR90)
		}
	}
	if frames == 0 || len(firsts) == 0 || len(r50) == 0 || len(r90) == 0 {
		return nil, fmt.Errorf("degenerate run: %d frames, %d first results, %d/%d targets with recall points", frames, len(firsts), len(r50), len(r90))
	}
	n := float64(len(out.recs))
	lats := latencies(out)
	return map[string]float64{
		"queries_per_s":         n / wall,
		"frames_per_s":          float64(frames) / wall,
		"latency_p50_s":         median(lats),
		"latency_p90_s":         percentile(lats, 90),
		"first_result_p50_s":    median(firsts),
		"slo_met_frac":          float64(met) / n,
		"charged_s_to_recall50": geoMeanOfMedians(r50),
		"charged_s_to_recall90": geoMeanOfMedians(r90),
		"charged_s_per_query":   charged / n,
		"results_per_kframe":    float64(results) / float64(frames) * 1000,
		"peak_rss_mb":           peakRSSMB(),
	}, nil
}

// geoMeanOfMedians is the geometric mean of the per-target medians.
// Targets differ by orders of magnitude, so a median over all queries
// jumps between targets from run to run, and an arithmetic mean follows
// the few costliest targets; the geometric mean weighs every target's
// median alike. Charged times are positive: every frame costs something.
func geoMeanOfMedians(byTarget map[int][]float64) float64 {
	var sum float64
	for _, xs := range byTarget {
		sum += math.Log(median(xs))
	}
	return math.Exp(sum / float64(len(byTarget)))
}

// peakRSSMB reads the process's peak resident set (VmHWM) from /proc,
// falling back to the Go runtime's total obtained memory.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// sortRecords orders records by plan position.
func sortRecords(recs []record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
