package exsample

import (
	"context"
	"sync"

	"github.com/exsample/exsample/internal/core"
	"github.com/exsample/exsample/internal/engine"
)

// Search runs a distinct-object query against the dataset and returns a
// report. It implements the full Algorithm 1 pipeline: pick a frame (by the
// configured strategy), read+decode it (charged via the decode cost model),
// run the object detector (charged per frame), pass detections through the
// SORT-style discriminator, and — for ExSample — feed the (d0, d1) split
// back into the per-chunk statistics.
//
// Search delegates to the same queryRun step loop that drives Session and
// Engine, so all three produce byte-identical reports for the same seed.
func (d *Dataset) Search(q Query, opts Options) (*Report, error) {
	return SearchSource(d, q, opts)
}

// SearchSource is Search over any Source — a local Dataset or a
// ShardedSource. The pipeline is identical; only frame routing differs.
func SearchSource(src Source, q Query, opts Options) (*Report, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	run, err := newQueryRun(src, q, opts, cacheConfig{}, false)
	if err != nil {
		return nil, err
	}
	// Only the batched ExSample loop (§III-F) defers updates and fans
	// inference out; every other strategy steps one frame at a time.
	if opts.Strategy == StrategyExSample && !opts.AutoChunk && opts.BatchSize > 1 {
		err = runBatched(run, opts.BatchSize, opts.Parallelism)
	} else {
		err = runSequential(run)
	}
	if err != nil {
		return nil, err
	}
	if run.err != nil {
		return nil, run.err
	}
	run.rep.Recall = run.curve.Recall()
	return run.rep, nil
}

// runSequential drives the step loop one frame at a time until the query's
// stopping condition fires or the repository is exhausted.
func runSequential(run *queryRun) error {
	ctx := context.Background()
	for !run.done() {
		p, ok := run.next()
		if !ok {
			break
		}
		fr, err := run.detectOne(ctx, p.Frame)
		if err != nil {
			return err
		}
		if _, err := run.step(p, fr); err != nil {
			return err
		}
	}
	return nil
}

// runBatched is the §III-F batched loop: draw a whole batch of picks before
// any of their updates apply, run inference as batched detector calls
// (optionally split across a bounded worker pool — the same pool type that
// backs the Engine's cross-query batching), then feed the discriminator in
// pick order.
func runBatched(run *queryRun, batch, parallelism int) error {
	ctx := context.Background()
	var pool *engine.Pool
	if parallelism > 1 {
		pool = engine.NewPool(parallelism)
		defer pool.Close()
	}
	for !run.done() {
		picks := make([]core.Pick, 0, batch)
		for len(picks) < batch {
			p, ok := run.next()
			if !ok {
				break
			}
			picks = append(picks, p)
		}
		if len(picks) == 0 {
			break
		}
		frames := make([]int64, len(picks))
		for i, p := range picks {
			frames[i] = p.Frame
		}
		results := make([]frameResult, len(picks))
		if pool != nil {
			// Split the batch into parallelism contiguous sub-batches, one
			// batched detector call each — same frames, same per-frame
			// outputs and costs, so results are byte-identical to a single
			// call.
			per := (len(picks) + parallelism - 1) / parallelism
			var tasks []func()
			var errMu sync.Mutex
			var firstErr error
			for start := 0; start < len(picks); start += per {
				start := start
				end := start + per
				if end > len(picks) {
					end = len(picks)
				}
				tasks = append(tasks, func() {
					sub, err := run.detectBatch(ctx, frames[start:end])
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					copy(results[start:end], sub)
				})
			}
			pool.Do(tasks)
			if firstErr != nil {
				return firstErr
			}
		} else {
			sub, err := run.detectBatch(ctx, frames)
			if err != nil {
				return err
			}
			copy(results, sub)
		}
		for i, p := range picks {
			if _, err := run.step(p, results[i]); err != nil {
				return err
			}
			if run.done() {
				// Remaining picks of the round are discarded unapplied;
				// their cost is never charged.
				break
			}
		}
	}
	return nil
}
