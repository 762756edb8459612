package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/backend"
	"github.com/exsample/exsample/backend/httpbatch"
	"github.com/exsample/exsample/backend/router"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/cachestore/httpcache"
	"github.com/exsample/exsample/internal/perf"
)

// fleet_remote: independent users in an open loop. One generator sends
// seeded Poisson arrivals of Limit-20 queries, half of them on 3 hot
// targets, to two engines standing in for two processes. The engines
// share one loopback httpcache L2; each of two profiles sits behind a
// scatter router over 3 loopback httpbatch replicas (1 fast at weight 2,
// 2 slow at weight 1); AdaptiveRounds is on. Wall time goes to the
// router, the wire, the L2 tier and round sizing, not the sampler.
const (
	fleetScale = 0.1
	fleetData  = 11 // dataset generation seed
	fleetLimit = 20
	// fleetRate is the arrival rate (queries/s), about a quarter of the
	// knee the calibration sweep found; fleetSLO is the latency limit
	// behind slo_met_frac. README.md records the sweep behind both.
	fleetRate = 25.0
	fleetSLO  = 250 * time.Millisecond
	// Replica latency model (perf.SlowBackend): a fixed per-call overhead
	// plus a per-frame cost; the fast replica is twice as fast per frame
	// and carries twice the weight.
	replicaOverhead = time.Millisecond
	fastPerFrame    = 25 * time.Microsecond
	slowPerFrame    = 50 * time.Microsecond
	replicaMaxBatch = 64
	// replicaConcurrency is each httpbatch client's MaxConcurrent.
	replicaConcurrency = 2
	l2Entries          = 1 << 18
)

var fleetProfiles = []string{"dashcam", "bdd1k"}

// fleetHot are the 3 hot targets that half the arrivals ask for.
var fleetHot = []fleetTarget{{0, "person"}, {1, "person"}, {1, "traffic sign"}}

type fleetTarget struct {
	profile int
	class   string
}

// fleetArrival is one planned query.
type fleetArrival struct {
	at     time.Duration // offset from the start of the pass
	target fleetTarget
	index  int // the target's position among the hot, then the cold targets
	engine int
	seed   uint64
}

// fleetPlan generates n arrivals from the seed, or rate×window of them
// when n < 0. Arrival times are a Poisson process conditioned on its
// count: n sorted uniform times over n/rate seconds. The same seed and
// count give the same sequence, which is how a traced pass replays an
// untraced one. Each consecutive pair holds one hot and one cold query,
// and both kinds cycle through seeded rounds of their targets, so every
// run carries the same mix.
func fleetPlan(seed uint64, rate float64, window time.Duration, n int, cold []fleetTarget) []fleetArrival {
	if n < 0 {
		n = int(rate * window.Seconds())
	}
	r := rng(seed, 7)
	span := float64(n) / rate * float64(time.Second)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(r.Float64() * span)
	}
	slices.Sort(at)
	plan := make([]fleetArrival, n)
	var hots, colds int
	var hotFirst bool
	for i := range plan {
		if i%2 == 0 {
			hotFirst = r.IntN(2) == 0
		}
		a := fleetArrival{at: at[i], engine: r.IntN(2), seed: mix(seed, i)}
		if hotFirst == (i%2 == 0) {
			a.index = roundRobin(seed, len(fleetHot), hots)
			a.target = fleetHot[a.index]
			hots++
		} else {
			c := roundRobin(seed+1, len(cold), colds)
			a.index, a.target = len(fleetHot)+c, cold[c]
			colds++
		}
		plan[i] = a
	}
	return plan
}

type fleetReplica struct {
	client *httpbatch.Client
	fast   bool
}

type fleetEnv struct {
	t       *tracer
	seed    uint64
	rate    float64
	servers []*httptest.Server
	routers []*router.Router
	reps    []fleetReplica
	srcs    []*exsample.Dataset // per profile, detecting through its router
	truth   []backend.Backend   // per profile, the in-process detector, for the checks
	cold    []fleetTarget
	l2      []*httpcache.Client // one per engine
	engines []*exsample.Engine
	// traced-run instruments: the replica clients' RoundTripper and the
	// count of replica calls that failed
	wire     *wireCounter
	failures atomic.Int64
	plan     []fleetArrival
	reports  map[int]*exsample.Report
	base     fleetCounters
}

func setupFleet(seed uint64, t *tracer, rate float64) (env, error) {
	e := &fleetEnv{t: t, seed: seed, rate: rate}
	if t != nil {
		e.wire = &wireCounter{next: http.DefaultTransport}
	}
	if err := e.build(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// serveReplica starts a loopback replica server; traced, it records a
// replica span per request under the caller's span.
func (e *fleetEnv) serveReplica(h http.Handler) *httptest.Server {
	if e.t != nil {
		h = tracedHandler(e.t, h)
	}
	srv := httptest.NewServer(h)
	e.servers = append(e.servers, srv)
	return srv
}

// replicaHTTP is the replica clients' HTTP client: nil (the default)
// untraced, the counting RoundTripper traced.
func (e *fleetEnv) replicaHTTP() *http.Client {
	if e.wire == nil {
		return nil
	}
	return &http.Client{Transport: e.wire}
}

func (e *fleetEnv) build() error {
	hot := map[fleetTarget]bool{}
	for _, h := range fleetHot {
		hot[h] = true
	}
	for pi, name := range fleetProfiles {
		plain, err := exsample.OpenProfile(name, fleetScale, fleetData, exsample.WithPerfectDetector())
		if err != nil {
			return err
		}
		e.truth = append(e.truth, plain.Backend())
		// Cold targets are the other classes with at least twice the
		// limit in instances, so every query ends on its limit rather
		// than by exhausting the repository.
		for _, c := range plain.Classes() {
			n, err := plain.GroundTruthCount(c)
			if err != nil {
				return err
			}
			if tg := (fleetTarget{pi, c}); !hot[tg] && n >= 2*fleetLimit {
				e.cold = append(e.cold, tg)
			}
		}
		specs := make([]router.ReplicaSpec, 3)
		for i := range specs {
			fast := i == 0
			perFrame, weight := slowPerFrame, 1.0
			if fast {
				perFrame, weight = fastPerFrame, 2
			}
			srv := e.serveReplica(httpbatch.Handler(
				perf.SlowBackend(plain.Backend(), replicaOverhead, perFrame, replicaMaxBatch)))
			client, err := httpbatch.New(httpbatch.Config{
				Endpoint:      srv.URL,
				HTTPClient:    e.replicaHTTP(),
				MaxConcurrent: replicaConcurrency,
				MaxBatch:      replicaMaxBatch,
			})
			if err != nil {
				return err
			}
			e.reps = append(e.reps, fleetReplica{client: client, fast: fast})
			var b backend.Backend = client
			if e.t != nil {
				b = &tracedReplica{Client: client, t: e.t, failures: &e.failures}
			}
			specs[i] = router.ReplicaSpec{Backend: b, Name: fmt.Sprintf("%s-%d", name, i), Weight: weight}
		}
		rt, err := router.New(router.Config{Specs: specs, Scatter: true})
		if err != nil {
			return err
		}
		e.routers = append(e.routers, rt)
		var b backend.Backend = rt
		if e.t != nil {
			b = &tracedRouter{Router: rt, t: e.t}
		}
		src, err := exsample.OpenProfile(name, fleetScale, fleetData, exsample.WithPerfectDetector(), exsample.WithBackend(b))
		if err != nil {
			return err
		}
		e.srcs = append(e.srcs, src)
	}
	l2srv := httptest.NewServer(httpcache.Handler(cachestore.NewLocal(l2Entries)))
	e.servers = append(e.servers, l2srv)
	for k := 0; k < 2; k++ {
		client, err := httpcache.New(httpcache.Config{Endpoint: l2srv.URL})
		if err != nil {
			return err
		}
		e.l2 = append(e.l2, client)
		var store cachestore.Store = client
		if e.t != nil {
			store = &tracedStore{inner: client, t: e.t}
		}
		eng, err := exsample.NewEngine(exsample.EngineOptions{Workers: clients, AdaptiveRounds: true, RemoteCache: store})
		if err != nil {
			return err
		}
		e.engines = append(e.engines, eng)
	}
	// Warmup: every engine runs one cold target per profile, which opens
	// the loopback connections and takes each router past its cold-start
	// latency estimates.
	for k, eng := range e.engines {
		for pi, src := range e.srcs {
			var mine []string
			for _, tg := range e.cold {
				if tg.profile == pi {
					mine = append(mine, tg.class)
				}
			}
			h, err := eng.Submit(context.Background(), src,
				exsample.Query{Class: mine[k%len(mine)], Limit: fleetLimit}, exsample.Options{Seed: 1})
			if err != nil {
				return err
			}
			if _, err := h.Wait(); err != nil {
				return fmt.Errorf("warmup: %w", err)
			}
		}
	}
	return nil
}

func (e *fleetEnv) close() {
	for _, eng := range e.engines {
		eng.Close()
	}
	for _, rt := range e.routers {
		rt.Close()
	}
	for _, srv := range e.servers {
		srv.Close()
	}
}

// inflight is one submitted, unfinished query.
type inflight struct {
	rec *record
	h   *exsample.QueryHandle
	sp  *openSpan
}

func (e *fleetEnv) run(deadline time.Time, n int) (*runOut, error) {
	plan := fleetPlan(e.seed, e.rate, time.Until(deadline), n, e.cold)
	e.plan = plan
	e.base = e.counters()
	e.failures.Store(0)
	e.reports = map[int]*exsample.Report{}
	out := &runOut{start: time.Now()}
	recs := make([]record, len(plan))
	started := make(chan inflight, len(plan)) // one slot per arrival: the generator never blocks
	go func() {
		defer close(started)
		for i, a := range plan {
			due := out.start.Add(a.at)
			time.Sleep(time.Until(due))
			rec := &recs[i]
			*rec = record{idx: i, target: a.index, due: due, toR50: math.NaN(), toR90: math.NaN()}
			ctx, sp := e.t.beginQuery(context.Background(), int64(i+1))
			rec.submit = time.Now()
			h, err := e.engines[a.engine].Submit(ctx, e.srcs[a.target.profile],
				exsample.Query{Class: a.target.class, Limit: fleetLimit}, exsample.Options{Seed: a.seed})
			if err != nil {
				rec.err, rec.done = err, time.Now()
				sp.end(0)
				continue
			}
			started <- inflight{rec: rec, h: h, sp: sp}
		}
	}()
	e.collect(started)
	out.end = time.Now()
	for i := range recs {
		out.recs = append(out.recs, recs[i])
		out.genLag = append(out.genLag, recs[i].submit.Sub(recs[i].due).Seconds())
	}
	return out, nil
}

// collect follows every started query on one goroutine: it selects over
// the event streams of all queries in flight, notes each first result,
// and finishes a query when its stream closes.
func (e *fleetEnv) collect(started <-chan inflight) {
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(started)}}
	var live []inflight
	for len(cases) > 1 || cases[0].Chan.IsValid() {
		chosen, v, ok := reflect.Select(cases)
		if chosen == 0 {
			if !ok {
				cases[0].Chan = reflect.Value{}
				continue
			}
			f := v.Interface().(inflight)
			live = append(live, f)
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(f.h.Events())})
			continue
		}
		f := live[chosen-1]
		if ok {
			if f.rec.first.IsZero() && len(v.Interface().(exsample.QueryEvent).New) > 0 {
				f.rec.first = time.Now()
			}
			continue
		}
		rep, err := f.h.Wait()
		f.rec.done = time.Now()
		f.rec.err = err
		if rep != nil {
			f.rec.frames = rep.FramesProcessed
			f.rec.results = len(rep.Results)
			f.rec.charged = rep.TotalSeconds()
			f.rec.toR50 = chargedToShare(rep, fleetLimit, 0.5)
			f.rec.toR90 = chargedToShare(rep, fleetLimit, 0.9)
			e.reports[f.rec.idx] = rep
		}
		f.sp.end(f.rec.frames)
		last := len(live) - 1
		live[chosen-1], cases[chosen] = live[last], cases[last+1]
		live, cases = live[:last], cases[:last+1]
	}
}

func (e *fleetEnv) check(out *runOut) error {
	for k := range out.recs {
		r := &out.recs[k]
		if r.err != nil {
			continue
		}
		rep := e.reports[r.idx]
		if rep == nil {
			r.bad = "no report"
			continue
		}
		bad, err := e.checkResults(rep, e.truth[e.plan[r.idx].target.profile])
		if err != nil {
			return err
		}
		r.bad = bad
	}
	if c := e.counters(); c.l2Errors > e.base.l2Errors {
		for k := range out.recs {
			out.recs[k].bad = fmt.Sprintf("%d L2 errors during the pass", c.l2Errors-e.base.l2Errors)
		}
	}
	return nil
}

// checkResults re-detects every result's frame on the in-process
// detector and requires a detection with the same box whose ground-truth
// id is real and not shared with another result.
func (e *fleetEnv) checkResults(rep *exsample.Report, truth backend.Backend) (string, error) {
	if len(rep.Results) < fleetLimit {
		return fmt.Sprintf("stopped at %d results, short of the limit %d", len(rep.Results), fleetLimit), nil
	}
	frames := make([]int64, len(rep.Results))
	for i, r := range rep.Results {
		frames[i] = r.Frame
	}
	dets, err := truth.DetectBatch(context.Background(), rep.Results[0].Class, frames)
	if err != nil {
		return "", err
	}
	seen := map[int]bool{}
	for i, r := range rep.Results {
		id := -1
		for _, d := range dets[i] {
			if d.Box == r.Box && d.Class == r.Class {
				id = d.TruthID
			}
		}
		if id < 0 {
			return fmt.Sprintf("result at frame %d is not a true %s", r.Frame, r.Class), nil
		}
		if seen[id] {
			return fmt.Sprintf("object %d reported twice", id), nil
		}
		seen[id] = true
	}
	return "", nil
}

// fleetCounters sums the public counters of every engine, router,
// replica client and L2 client.
type fleetCounters struct {
	engine                    exsample.EngineStats
	tier                      cachestore.TierStats
	l2Errors                  int64
	fastFrames, replicaFrames int64
	replicaRetries, l2Retries int64
	failovers, breakerOpens   int64
}

func (e *fleetEnv) counters() fleetCounters {
	var c fleetCounters
	for _, eng := range e.engines {
		st, ts := eng.Stats(), eng.TierStats()
		c.engine.Rounds += st.Rounds
		c.engine.DetectCalls += st.DetectCalls
		c.engine.Batches += st.Batches
		c.engine.QuotaGrows += st.QuotaGrows
		c.engine.QuotaShrinks += st.QuotaShrinks
		c.engine.PeakQuota = max(c.engine.PeakQuota, st.PeakQuota)
		c.tier.L1Hits += ts.L1Hits
		c.tier.L1Misses += ts.L1Misses
		c.tier.L2Hits += ts.L2Hits
		c.tier.Merges += ts.Merges
		c.l2Errors += ts.L2Errors + ts.L2PutErrors
	}
	for _, r := range e.reps {
		st := r.client.Stats()
		c.replicaFrames += st.Frames
		c.replicaRetries += st.Retries
		if r.fast {
			c.fastFrames += st.Frames
		}
	}
	for _, l2 := range e.l2 {
		c.l2Retries += l2.Stats().Retries
	}
	for _, rt := range e.routers {
		c.failovers += rt.Failovers()
		c.breakerOpens += rt.BreakerOpens()
	}
	return c
}

func (e *fleetEnv) layers(out *runOut, ix spanIndex) map[string]float64 {
	c, b := e.counters(), e.base
	m := map[string]float64{}
	self, frames, _ := ix.sumSelf(spanQuery, spanDetect, spanL2Get, spanL2Put)
	m["engine.self_s_per_frame"] = ratio(self, float64(frames))
	m["engine.frames_per_batch"] = ratio(float64(c.engine.DetectCalls-b.engine.DetectCalls), float64(c.engine.Batches-b.engine.Batches))
	m["engine.rounds_per_query"] = ratio(float64(c.engine.Rounds-b.engine.Rounds), float64(len(out.recs)))
	busy, work, calls := ix.sumBusy(spanDetect)
	m["detect.busy_s_per_frame"] = ratio(busy, float64(work))
	m["detect.frames_per_call"] = ratio(float64(work), float64(calls))

	rself, _, batches := ix.sumSelf(spanDetect, spanHTTPBatch)
	m["router.self_s_per_batch"] = ratio(rself, float64(batches))
	_, sliceFrames, nSlices := ix.sumBusy(spanHTTPBatch)
	m["router.slices_per_batch"] = ratio(float64(nSlices), float64(batches))
	m["router.fast_frame_share"] = ratio(float64(c.fastFrames-b.fastFrames), float64(c.replicaFrames-b.replicaFrames))
	m["router.failovers"] = float64(c.failovers - b.failovers)
	m["router.breaker_opens"] = float64(c.breakerOpens - b.breakerOpens)

	wire, _, _ := ix.sumSelf(spanHTTPBatch, spanReplica)
	m["httpbatch.wire_s_per_batch"] = ratio(wire, float64(nSlices))
	if e.wire != nil {
		m["httpbatch.req_bytes_per_frame"] = ratio(float64(e.wire.reqBytes.Load()), float64(sliceFrames))
		m["httpbatch.resp_bytes_per_frame"] = ratio(float64(e.wire.rspBytes.Load()), float64(sliceFrames))
	}
	m["httpbatch.retries"] = float64(c.replicaRetries - b.replicaRetries)
	m["httpbatch.failures"] = float64(e.failures.Load())

	lookups := float64(c.tier.L1Hits + c.tier.L1Misses - b.tier.L1Hits - b.tier.L1Misses)
	m["cachestore.l1_hit_frac"] = ratio(float64(c.tier.L1Hits-b.tier.L1Hits), lookups)
	m["cachestore.l2_hit_frac"] = ratio(float64(c.tier.L2Hits-b.tier.L2Hits), lookups)
	m["cachestore.l2_get_s_p50"] = median(ix.durations(spanL2Get))
	m["cachestore.l2_put_s_p50"] = median(ix.durations(spanL2Put))
	_, getKeys, gets := ix.sumBusy(spanL2Get)
	_, putKeys, puts := ix.sumBusy(spanL2Put)
	m["cachestore.l2_keys_per_call"] = ratio(float64(getKeys+putKeys), float64(gets+puts))
	m["cachestore.merges"] = float64(c.tier.Merges - b.tier.Merges)
	m["cachestore.l2_errors"] = float64(c.l2Errors - b.l2Errors)
	m["httpcache.retries"] = float64(c.l2Retries - b.l2Retries)

	m["sizer.quota_grows"] = float64(c.engine.QuotaGrows - b.engine.QuotaGrows)
	m["sizer.quota_shrinks"] = float64(c.engine.QuotaShrinks - b.engine.QuotaShrinks)
	m["sizer.peak_quota"] = float64(c.engine.PeakQuota)
	return m
}

// runCalibration sweeps fleet_remote's arrival rate to find the knee:
// the rate beyond which latency climbs and a backlog builds. It prints
// one line per rate and is not part of a benchmark run.
func runCalibration(seed uint64, seconds int, rates string) error {
	fmt.Printf("%8s %8s %10s %10s %10s %10s %12s\n", "rate", "queries", "p50_s", "p90_s", "done_q/s", "slo_frac", "gen_lag_max")
	for _, f := range strings.Split(rates, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || rate <= 0 {
			return fmt.Errorf("bad rate %q", f)
		}
		en, err := setupFleet(seed, nil, rate)
		if err != nil {
			return err
		}
		out, err := en.run(time.Now().Add(time.Duration(seconds)*time.Second), -1)
		en.close()
		if err != nil {
			return err
		}
		lats := latencies(out)
		met := 0
		for _, r := range out.recs {
			if !r.failed() && r.done.Sub(r.due) <= fleetSLO {
				met++
			}
		}
		fmt.Printf("%8.1f %8d %10.4f %10.4f %10.2f %10.3f %12.4f\n", rate, len(out.recs), median(lats), percentile(lats, 90),
			float64(len(out.recs))/out.end.Sub(out.start).Seconds(), float64(met)/float64(len(out.recs)), percentile(out.genLag, 100))
	}
	return nil
}
