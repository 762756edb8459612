package main

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	exsample "github.com/exsample/exsample"
)

// clients is the closed-loop client count: the benchmark is sized for a
// 2-core machine.
const clients = 2

// rng returns the deterministic generator for one stream of a seed.
func rng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// mix derives a per-query seed from the workload seed and a plan index.
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roundRobin maps plan index i to one of n targets: the plan runs whole
// rounds, each a seeded permutation of every target, so any run covers
// the targets evenly whatever its length.
func roundRobin(seed uint64, n, i int) int {
	return rng(seed, uint64(i/n)).Perm(n)[i%n]
}

// closedLoop runs plan entries on `clients` goroutines, each starting its
// next query when the previous one returns. With n >= 0 it runs entries
// 0..n-1. With n < 0 it runs until deadline and then finishes the round
// of `round` entries in progress, so every run covers whole rounds.
func closedLoop(deadline time.Time, n, round int, one func(i int) record) *runOut {
	out := &runOut{start: time.Now()}
	var next atomic.Int64
	limit := new(atomic.Int64)
	limit.Store(math.MaxInt64)
	if n >= 0 {
		limit.Store(int64(n))
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if n < 0 && !time.Now().Before(deadline) {
					// The first draw after the deadline fixes the end of
					// the run at the end of its round.
					limit.CompareAndSwap(math.MaxInt64, (i+int64(round)-1)/int64(round)*int64(round))
				}
				if i >= limit.Load() {
					return
				}
				r := one(int(i))
				mu.Lock()
				out.recs = append(out.recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.end = time.Now()
	sortRecords(out.recs)
	return out
}

// runDistinct submits one distinct-object query and follows it to the
// end on the calling goroutine: it reads the event stream for the first
// new result, then waits for the report.
func runDistinct(eng *exsample.Engine, t *tracer, i int, src exsample.Source, q exsample.Query, opts exsample.Options) (record, *exsample.Report) {
	rec := record{idx: i, toR50: math.NaN(), toR90: math.NaN()}
	ctx, sp := t.beginQuery(context.Background(), int64(i+1))
	rec.submit = time.Now()
	rec.due = rec.submit
	h, err := eng.Submit(ctx, src, q, opts)
	if err != nil {
		rec.err = err
		rec.done = time.Now()
		sp.end(0)
		return rec, nil
	}
	for ev := range h.Events() {
		if rec.first.IsZero() && len(ev.New) > 0 {
			rec.first = time.Now()
		}
	}
	rep, err := h.Wait()
	rec.done = time.Now()
	rec.err = err
	if rep != nil {
		rec.frames = rep.FramesProcessed
		rec.results = len(rep.Results)
		rec.charged = rep.TotalSeconds()
	}
	sp.end(rec.frames)
	return rec, rep
}

// chargedToShare returns the charged seconds at which a report's
// discovery curve first held share of goal true instances, NaN when it
// never did.
func chargedToShare(rep *exsample.Report, goal int, share float64) float64 {
	need := int(math.Ceil(share * float64(goal)))
	for i, f := range rep.CurveFound {
		if f >= need {
			return rep.CurveSeconds[i]
		}
	}
	return math.NaN()
}

// uniqueObjectIDs reports whether a report's results carry distinct
// ObjectIDs.
func uniqueObjectIDs(rep *exsample.Report) bool {
	seen := make(map[int]bool, len(rep.Results))
	for _, r := range rep.Results {
		if seen[r.ObjectID] {
			return false
		}
		seen[r.ObjectID] = true
	}
	return true
}
