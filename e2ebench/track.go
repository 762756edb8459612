package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"time"

	exsample "github.com/exsample/exsample"
)

// track_local: track-predicate queries (MinDuration, Direction, a Crosses
// tripwire, From/To regions) over three synthetic moving-object scenes, a
// closed loop of 2 clients with the in-process detector and the engine's
// memo cache on. Predicates on one scene share coarse grids, so they
// overlap in the cache; the working set is larger than the cache, so the
// detector still runs.
const (
	trackFrames  = 30_000
	trackObjects = 12
	trackData    = 21 // scene generation seed
	trackCache   = 8192
	// trackRound is the engine's FramesPerRound: refine reads contiguous
	// dense ranges, and a round carries 16 of their frames in one batch.
	trackRound = 16
	trackSLO   = 100 * time.Millisecond
)

// trackScene is one scene: every object travels by (dx, dy) over its
// lifetime, and the predicates are written for that heading.
type trackScene struct {
	name   string
	dx, dy float64
	// heading arc (degrees, screen coordinates) that contains (dx, dy)
	dirMin, dirMax float64
	// wire is a tripwire across the middle of the objects' paths; from
	// and to are the regions before and after it.
	wire     exsample.Segment
	from, to exsample.Region
}

func rect(x1, y1, x2, y2 float64) exsample.Region {
	return exsample.Region{{X: x1, Y: y1}, {X: x2, Y: y1}, {X: x2, Y: y2}, {X: x1, Y: y2}}
}

var trackScenes = []trackScene{
	{name: "east", dx: 300, dirMin: 315, dirMax: 45,
		wire: exsample.Segment{A: exsample.Point{X: 700, Y: -500}, B: exsample.Point{X: 700, Y: 3000}},
		from: rect(-500, -500, 700, 3000), to: rect(700, -500, 3000, 3000)},
	{name: "south", dy: 300, dirMin: 45, dirMax: 135,
		wire: exsample.Segment{A: exsample.Point{X: -500, Y: 700}, B: exsample.Point{X: 3000, Y: 700}},
		from: rect(-500, -500, 3000, 700), to: rect(-500, 700, 3000, 3000)},
	{name: "northwest", dx: -300, dy: -200, dirMin: 180, dirMax: 250,
		wire: exsample.Segment{A: exsample.Point{X: 700, Y: -500}, B: exsample.Point{X: 700, Y: 3000}},
		from: rect(700, -500, 3000, 3000), to: rect(-500, -500, 700, 3000)},
}

// predicates lists the scene's queries. The first four share a coarse
// stride (MinDuration 50 gives stride 25); the last uses stride 64.
func (s trackScene) predicates() []exsample.TrackPredicate {
	base := exsample.TrackPredicate{Class: "car", MinDuration: 50}
	dir, wire, fromTo, long := base, base, base, base
	dir.Direction = &exsample.DirectionRange{MinDeg: s.dirMin, MaxDeg: s.dirMax}
	w := s.wire
	wire.Crosses = &w
	fromTo.From, fromTo.To = s.from, s.to
	long.MinDuration = 150
	return []exsample.TrackPredicate{base, dir, wire, fromTo, long}
}

type trackTarget struct {
	scene int
	pred  exsample.TrackPredicate
}

type trackEnv struct {
	t       *tracer
	seed    uint64
	eng     *exsample.Engine
	scenes  []*exsample.Dataset
	targets []trackTarget
	reps    map[int]*exsample.TrackReport
	stats0  exsample.EngineStats
	cache0  exsample.CacheStats
}

func setupTrack(seed uint64, t *tracer) (env, error) {
	e := &trackEnv{t: t, seed: seed}
	for k, sc := range trackScenes {
		opts := []exsample.DatasetOption{exsample.WithPerfectDetector()}
		spec := exsample.SynthSpec{
			NumFrames:    trackFrames,
			NumInstances: trackObjects,
			Class:        "car",
			MeanDuration: 300,
			ChunkFrames:  1000,
			Seed:         trackData + uint64(k),
			TravelX:      sc.dx,
			TravelY:      sc.dy,
		}
		ds, err := exsample.Synthesize(spec, opts...)
		if err != nil {
			return nil, err
		}
		if t != nil {
			if ds, err = exsample.Synthesize(spec, append(opts,
				exsample.WithBackend(&tracedBackend{inner: ds.Backend(), t: t}))...); err != nil {
				return nil, err
			}
		}
		e.scenes = append(e.scenes, ds)
		for _, p := range sc.predicates() {
			e.targets = append(e.targets, trackTarget{scene: k, pred: p})
		}
	}
	eng, err := exsample.NewEngine(exsample.EngineOptions{Workers: clients, FramesPerRound: trackRound, CacheEntries: trackCache})
	if err != nil {
		return nil, err
	}
	e.eng = eng
	// Warmup: one coarse-only pass per scene at a stride no predicate
	// uses, so lazy set-up is done but the cache holds no answer.
	for _, ds := range e.scenes {
		h, err := eng.SubmitTrack(context.Background(), ds,
			exsample.TrackPredicate{Class: "car"}, exsample.TrackOptions{Stride: 97, CoarseOnly: true})
		if err != nil {
			eng.Close()
			return nil, err
		}
		if _, err := h.Wait(); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return e, nil
}

func (e *trackEnv) run(deadline time.Time, n int) (*runOut, error) {
	var mu sync.Mutex
	e.reps = map[int]*exsample.TrackReport{}
	e.stats0, e.cache0 = e.eng.Stats(), e.eng.CacheStats()
	out := closedLoop(deadline, n, len(e.targets), func(i int) record {
		ti := roundRobin(e.seed, len(e.targets), i)
		tg := e.targets[ti]
		rec := record{idx: i, target: ti, toR50: math.NaN(), toR90: math.NaN()}
		ctx, sp := e.t.beginQuery(context.Background(), int64(i+1))
		rec.submit = time.Now()
		rec.due = rec.submit
		h, err := e.eng.SubmitTrack(ctx, e.scenes[tg.scene], tg.pred, exsample.TrackOptions{Seed: mix(e.seed, i)})
		if err != nil {
			rec.err, rec.done = err, time.Now()
			sp.end(0)
			return rec
		}
		// progress[k] is the charged time when the query had k+1 tracks.
		var progress []float64
		for ev := range h.Events() {
			if len(ev.Tracks) > 0 && rec.first.IsZero() {
				rec.first = time.Now()
			}
			for range ev.Tracks {
				progress = append(progress, ev.Seconds)
			}
		}
		rep, err := h.Wait()
		rec.done = time.Now()
		rec.err = err
		if rep != nil {
			rec.frames = rep.FramesProcessed
			rec.results = len(rep.Results)
			rec.charged = rep.TotalSeconds()
			if len(progress) == len(rep.Results) && len(progress) > 0 {
				rec.toR50 = progress[int(math.Ceil(0.5*float64(len(progress))))-1]
				rec.toR90 = progress[int(math.Ceil(0.9*float64(len(progress))))-1]
			}
			mu.Lock()
			e.reps[i] = rep
			mu.Unlock()
		}
		sp.end(rec.frames)
		return rec
	})
	return out, nil
}

// normTracks drops emission numbering and orders tracks by position, so
// two runs that localized intervals in different orders compare as sets.
func normTracks(rs []exsample.TrackResult) []exsample.TrackResult {
	out := append([]exsample.TrackResult(nil), rs...)
	for i := range out {
		out[i].TrackID = 0
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.StartBox.Y1 < b.StartBox.Y1
	})
	return out
}

// check compares every query's tracks with its predicate's dense-scan
// answer (stride 1, the same pipeline), computed once per predicate on a
// separate engine.
func (e *trackEnv) check(out *runOut) error {
	dense, err := exsample.NewEngine(exsample.EngineOptions{Workers: clients, CacheEntries: 1 << 17})
	if err != nil {
		return err
	}
	defer dense.Close()
	// Submit every predicate's dense scan at once; the engine runs them
	// side by side.
	handles := make([]*exsample.TrackHandle, len(e.targets))
	for ti, tg := range e.targets {
		if handles[ti], err = dense.SubmitTrack(context.Background(), e.scenes[tg.scene], tg.pred, exsample.TrackOptions{Stride: 1}); err != nil {
			return err
		}
	}
	answers := make([][]exsample.TrackResult, len(e.targets))
	for ti, h := range handles {
		rep, err := h.Wait()
		if err != nil {
			return fmt.Errorf("dense scan: %w", err)
		}
		answers[ti] = normTracks(rep.Results)
	}
	for k := range out.recs {
		r := &out.recs[k]
		if r.err != nil {
			continue
		}
		want := answers[roundRobin(e.seed, len(e.targets), r.idx)]
		rep := e.reps[r.idx]
		switch {
		case rep == nil:
			r.bad = "no report"
		case len(want) == 0:
			r.bad = "predicate matches no track"
		case !reflect.DeepEqual(normTracks(rep.Results), want):
			r.bad = fmt.Sprintf("%d tracks differ from the dense scan's %d", len(rep.Results), len(want))
		}
	}
	return nil
}

func (e *trackEnv) layers(out *runOut, ix spanIndex) map[string]float64 {
	m := map[string]float64{}
	self, frames, _ := ix.sumSelf(spanQuery, spanDetect)
	m["trackquery.self_s_per_frame"] = ratio(self, float64(frames))
	st, st0 := e.eng.Stats(), e.stats0
	m["engine.frames_per_batch"] = ratio(float64(st.DetectCalls-st0.DetectCalls), float64(st.Batches-st0.Batches))
	m["engine.rounds_per_query"] = ratio(float64(st.Rounds-st0.Rounds), float64(len(out.recs)))
	busy, work, calls := ix.sumBusy(spanDetect)
	m["detect.busy_s_per_frame"] = ratio(busy, float64(work))
	m["detect.frames_per_call"] = ratio(float64(work), float64(calls))
	cs, cs0 := e.eng.CacheStats(), e.cache0
	m["cache.hit_frac"] = ratio(float64(cs.Hits-cs0.Hits), float64(cs.Hits+cs.Misses-cs0.Hits-cs0.Misses))
	var coarse, refine, intervals, denseX float64
	for _, rep := range e.reps {
		coarse += float64(rep.CoarseFrames)
		refine += float64(rep.RefineFrames)
		intervals += float64(rep.Intervals)
		denseX += rep.Speedup()
	}
	n := float64(len(e.reps))
	m["trackquery.coarse_frames"] = ratio(coarse, n)
	m["trackquery.refine_frames"] = ratio(refine, n)
	m["trackquery.intervals"] = ratio(intervals, n)
	m["trackquery.dense_x"] = ratio(denseX, n)
	return m
}

func (e *trackEnv) close() { e.eng.Close() }
