package exsample

import (
	"context"
	"testing"

	"github.com/exsample/exsample/internal/cache"
	"github.com/exsample/exsample/internal/sizer"
)

// TestDetectBatchMemoHitAllocFree: once every frame of a batch is resident
// in the cross-query memo cache, detectBatchInto through a warm scratch
// resolves the whole batch locally without a single allocation — the
// steady state of overlapping engine queries sharing a cache.
func TestDetectBatchMemoHitAllocFree(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	memo := cache.New(1 << 12)
	run, err := newQueryRun(ds, Query{Class: "car", Limit: 10}, Options{Seed: 3}, cacheConfig{memo: memo}, false)
	if err != nil {
		t.Fatal(err)
	}
	frames := []int64{10, 2000, 40_000, 90_000, 150_000, 199_999}
	var scr detectScratch
	ctx := context.Background()
	// First pass misses and fills the cache (and sizes the scratch).
	if _, err := run.detectBatchInto(ctx, frames, &scr); err != nil {
		t.Fatal(err)
	}
	res, err := run.detectBatchInto(ctx, frames, &scr)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range res {
		if !fr.cached {
			t.Fatalf("frame %d not cached on the second pass", frames[i])
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := run.detectBatchInto(ctx, frames, &scr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("all-hit detectBatch allocates %.2f objects/batch, want 0", allocs)
	}
}

// TestDetectOneScratchReuse: the sequential step loop's detectOne path
// reuses the per-run scratch, so repeated single-frame batches on the
// memo-hit path are allocation-free too.
func TestDetectOneScratchReuse(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	memo := cache.New(1 << 12)
	run, err := newQueryRun(ds, Query{Class: "car", Limit: 10}, Options{Seed: 3}, cacheConfig{memo: memo}, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := run.detectOne(ctx, 12345); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := run.detectOne(ctx, 12345); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("memo-hit detectOne allocates %.2f objects/call, want 0", allocs)
	}
}

// TestAdapterSizedMemoHitAllocFree: the engine adapter around the detect
// path — scratch reclaim, DetectBatch's boxing and backend-frame note, and
// ObserveBatch's consume — adds no allocation to a distinct query's
// adaptive round once its group is memo-resident. (The miss path is not
// allocation-free: it fills the memo.)
func TestAdapterSizedMemoHitAllocFree(t *testing.T) {
	ds := smallDataset(t, WithPerfectDetector())
	run, err := newQueryRun(ds, Query{Class: "car", Limit: 10}, Options{Seed: 3}, cacheConfig{memo: cache.New(1 << 12)}, false)
	if err != nil {
		t.Fatal(err)
	}
	var counters sizer.Counters
	fleet, err := sizer.NewFleet(sizer.Config{Min: 2, Max: 32}, &counters)
	if err != nil {
		t.Fatal(err)
	}
	q := sizedAdapter(run, fleet)
	frames := []int64{10, 2000, 40_000, 90_000, 150_000, 199_999}
	key := q.AffinityKey(frames[0])
	cycle := func() {
		q.scr.reclaim()
		if _, err := q.DetectBatch(frames); err != nil {
			t.Fatal(err)
		}
		q.ObserveBatch(key, len(frames), 0.001)
	}
	// The first cycle misses and fills the memo (and sizes the scratches).
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
		t.Fatalf("sized adapter memo-hit cycle allocates %.2f objects, want 0", allocs)
	}
}
