// Package parallel is the repository's shared bounded worker pool. Every
// embarrassingly parallel loop — cross-validation folds, grid-search
// candidates, Table 1 generation groups, the per-scenario experiment
// sweeps — fans out through this package so that concurrency is applied
// uniformly and, above all, *deterministically*: results are always
// assembled in task-index order, errors are reported for the lowest
// failing index (exactly what the equivalent serial loop would have
// returned), and each call site derives per-task seeds from the task
// index, never from scheduling order. A run at
// GOMAXPROCS=1 and a run at GOMAXPROCS=64 therefore produce bit-identical
// output for the same seed; the determinism tests across the repo enforce
// this.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers overrides the pool width when positive. Zero (the
// default) sizes pools by runtime.GOMAXPROCS(0) at call time.
var defaultWorkers atomic.Int32

// SetDefaultWorkers fixes the default pool width for subsequent calls
// that do not pass an explicit worker count. n <= 0 restores the
// GOMAXPROCS default. The cmd-level -parallel flags call this once at
// startup.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// DefaultWorkers reports the pool width a zero-worker call would use.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most DefaultWorkers()
// goroutines and waits for all started tasks. If any tasks fail, the
// error of the lowest failing index is returned — the same error a
// serial loop over the indices would have stopped at — and the remaining
// unstarted tasks are skipped.
func ForEach(n int, fn func(i int) error) error {
	return Do(context.Background(), 0, n, fn)
}

// Map runs fn(i) for every i in [0, n) on at most DefaultWorkers()
// goroutines and returns the results in index order, independent of
// scheduling. On error it returns the error of the lowest failing index.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Do(context.Background(), 0, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Do is the full-control variant: it runs fn(i) for every i in [0, n) on
// at most `workers` goroutines (workers <= 0 selects DefaultWorkers())
// and stops launching new tasks once ctx is cancelled or a task fails.
// Tasks already started always run to completion, which guarantees that
// the lowest failing index has been executed by the time Do returns, so
// the returned error never depends on goroutine scheduling.
func Do(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Inline serial path: identical to the pre-pool loops.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		stopped  atomic.Bool
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// MapStream runs fn(i) for every i in [0, n) on at most DefaultWorkers()
// goroutines and hands each result to consume in strict index order, as
// soon as it and all of its predecessors have completed. consume never
// runs concurrently with itself, so the caller can fold results into a
// stream (e.g. append generated run groups to an on-disk chunk writer)
// without holding all n results in memory: workers stop claiming new
// task indices more than 2×workers ahead of the drain point, bounding
// in-flight results by the window rather than by n. On error — from fn
// or from consume — the error of the lowest failing index is returned
// (the same error the equivalent serial produce-then-consume loop would
// have stopped at); results past a failure are discarded, not consumed.
func MapStream[T any](n int, fn func(i int) (T, error), consume func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	workers := DefaultWorkers()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Inline serial path: produce and consume in lockstep.
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	window := 2 * workers
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		results   = make(map[int]T, window)
		next      int // next task index to claim
		drain     int // next index to hand to consume
		consuming bool
		firstIdx  = n
		firstErr  error
		failed    bool
		wg        sync.WaitGroup
	)
	record := func(i int, err error) {
		// Callers hold mu.
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		failed = true
		cond.Broadcast()
	}
	worker := func() {
		defer wg.Done()
		for {
			mu.Lock()
			for !failed && next < n && next >= drain+window {
				cond.Wait()
			}
			if failed || next >= n {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()

			v, err := fn(i)

			mu.Lock()
			if err != nil {
				record(i, err)
				mu.Unlock()
				return
			}
			results[i] = v
			// Drain every consecutive completed result starting at the
			// drain point. The `consuming` flag serializes consumers: a
			// worker that finds another one mid-consume leaves its result
			// in the map and goes back to producing — the active consumer
			// will pick it up on its next loop iteration.
			if !consuming {
				consuming = true
				for !failed {
					rv, ok := results[drain]
					if !ok {
						break
					}
					delete(results, drain)
					idx := drain
					mu.Unlock()
					cerr := consume(idx, rv)
					mu.Lock()
					if cerr != nil {
						record(idx, cerr)
						break
					}
					drain++
					cond.Broadcast()
				}
				consuming = false
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	return firstErr
}
