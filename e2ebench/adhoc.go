package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	exsample "github.com/exsample/exsample"
)

// adhoc_local: analysts' ad-hoc "find the objects" queries over all 43
// Table-I (profile, class) targets, a closed loop of 2 clients against
// one engine with the in-process simulated detector, no cache and
// default engine options. The engine's own CPU is the whole cost.
const (
	adhocScale = 0.1 // profile scale: ~1.5 s per round of 43 targets on 2 cores
	adhocData  = 7   // dataset generation seed: the repository is fixed, the queries vary
	adhocSLO   = time.Second
	// adhocIdentity is how many completed queries per run are re-run
	// through SearchSource, outside the window, for the byte-identity check.
	adhocIdentity = 3
)

type adhocTarget struct {
	profile int
	class   string
}

type adhocEnv struct {
	t   *tracer
	eng *exsample.Engine
	// plain are the datasets as opened; srcs are what queries run on —
	// the same datasets, or in a traced run twins whose detector is
	// attached through WithBackend so every detect call is a span.
	plain, srcs []*exsample.Dataset
	targets     []adhocTarget
	seed        uint64
	sample      []int                // plan indices of the byte-identity sample
	sampled     []*exsample.Report   // their reports, aligned with sample
	stats0      exsample.EngineStats // engine counters when the pass started
}

func setupAdhoc(seed uint64, t *tracer) (env, error) {
	e := &adhocEnv{t: t, seed: seed}
	for pi, name := range exsample.ProfileNames() {
		ds, err := exsample.OpenProfile(name, adhocScale, adhocData)
		if err != nil {
			return nil, err
		}
		src := ds
		if t != nil {
			if src, err = exsample.OpenProfile(name, adhocScale, adhocData,
				exsample.WithBackend(&tracedBackend{inner: ds.Backend(), t: t})); err != nil {
				return nil, err
			}
		}
		e.plain = append(e.plain, ds)
		e.srcs = append(e.srcs, src)
		for _, c := range ds.Classes() {
			e.targets = append(e.targets, adhocTarget{profile: pi, class: c})
		}
	}
	eng, err := exsample.NewEngine(exsample.EngineOptions{Workers: clients})
	if err != nil {
		return nil, err
	}
	e.eng = eng
	// Warmup: one fixed-seed query per profile, so the first timed
	// queries do not pay for lazy detector and sampler set-up.
	for pi, ds := range e.srcs {
		h, err := eng.Submit(context.Background(), ds,
			exsample.Query{Class: e.plain[pi].Classes()[0], RecallTarget: 0.5}, exsample.Options{Seed: 1})
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

func (e *adhocEnv) query(i int) (int, exsample.Query, exsample.Options) {
	ti := roundRobin(e.seed, len(e.targets), i)
	return ti, exsample.Query{Class: e.targets[ti].class, RecallTarget: 0.9}, exsample.Options{Seed: mix(e.seed, i)}
}

func (e *adhocEnv) run(deadline time.Time, n int) (*runOut, error) {
	// The byte-identity sample is drawn from the first round, which every
	// pass runs; only those reports are kept.
	var mu sync.Mutex
	e.sample = rng(e.seed, 1<<32).Perm(len(e.targets))[:adhocIdentity]
	e.sampled = make([]*exsample.Report, adhocIdentity)
	e.stats0 = e.eng.Stats()
	out := closedLoop(deadline, n, len(e.targets), func(i int) record {
		ti, q, opts := e.query(i)
		rec, rep := runDistinct(e.eng, e.t, i, e.srcs[e.targets[ti].profile], q, opts)
		rec.target = ti
		if rep == nil || rec.err != nil {
			return rec
		}
		if s, ok := rep.SecondsToRecall(0.5); ok {
			rec.toR50 = s
		}
		if s, ok := rep.SecondsToRecall(0.9); ok {
			rec.toR90 = s
		}
		// The per-report checks cost microseconds, so they run as each
		// query returns and no report outlives its query.
		switch {
		case rep.Recall < 0.9:
			rec.bad = fmt.Sprintf("recall %.3f below the 0.9 target", rep.Recall)
		case !uniqueObjectIDs(rep):
			rec.bad = "duplicate ObjectIDs"
		case math.IsNaN(rec.toR90):
			rec.bad = "no charged time to 90% recall"
		}
		mu.Lock()
		for k, s := range e.sample {
			if s == i {
				e.sampled[k] = rep
			}
		}
		mu.Unlock()
		return rec
	})
	return out, nil
}

// check compares the sampled reports with SearchSource over the plain
// dataset with the same query and seed: they must encode byte-identically.
func (e *adhocEnv) check(out *runOut) error {
	for k, i := range e.sample {
		if i >= len(out.recs) || out.recs[i].failed() {
			continue
		}
		ti, q, opts := e.query(i)
		want, err := exsample.SearchSource(e.plain[e.targets[ti].profile], q, opts)
		if err != nil {
			return err
		}
		a, errA := json.Marshal(e.sampled[k])
		b, errB := json.Marshal(want)
		if errA != nil || errB != nil {
			return fmt.Errorf("encode reports: %v %v", errA, errB)
		}
		if !bytes.Equal(a, b) {
			out.recs[i].bad = "report differs from SearchSource with the same seed"
		}
	}
	return nil
}

func (e *adhocEnv) layers(out *runOut, ix spanIndex) map[string]float64 {
	m := map[string]float64{}
	self, frames, _ := ix.sumSelf(spanQuery, spanDetect, spanL2Get, spanL2Put)
	m["engine.self_s_per_frame"] = ratio(self, float64(frames))
	st, st0 := e.eng.Stats(), e.stats0
	m["engine.frames_per_batch"] = ratio(float64(st.DetectCalls-st0.DetectCalls), float64(st.Batches-st0.Batches))
	m["engine.rounds_per_query"] = ratio(float64(st.Rounds-st0.Rounds), float64(len(out.recs)))
	busy, work, calls := ix.sumBusy(spanDetect)
	m["detect.busy_s_per_frame"] = ratio(busy, float64(work))
	m["detect.frames_per_call"] = ratio(float64(work), float64(calls))
	return m
}

func (e *adhocEnv) close() { e.eng.Close() }
