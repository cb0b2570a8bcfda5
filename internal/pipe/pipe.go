// Package pipe provides the pull-based iterator stages the runtime
// pipeline is composed from. A Source is a lazy, context-aware iterator;
// a Stage wraps an upstream Source into a downstream one. Stages do no
// work until pulled, so a composed pipeline materializes nothing beyond
// each stage's own bounded scratch — memory is governed by stage-buffer
// depth and worker count, not by input size.
//
// Three execution shapes cover the pipeline's needs:
//
//   - Map: serial per-item transformation, zero goroutines, laziness only.
//   - ParMap: ordered parallel transformation — a bounded worker pool
//     pulls items, and results are delivered strictly in input order, so
//     output is byte-identical for every worker count.
//   - Buffer: a stage boundary — the upstream runs in its own goroutine
//     feeding a bounded channel, so downstream work overlaps upstream
//     work (wave pipelining). Depth 0 is an unbuffered handoff: the
//     upstream still works one item ahead of the consumer.
//
// Cancellation: every blocking point selects on the context, and every
// goroutine a stage spawned exits once the context is cancelled or the
// stage is drained. The context passed to the first Next call is the one
// a stage's goroutines watch; callers must use a single context for one
// pipeline's lifetime (the pipeline packages do). A pipeline abandoned
// mid-stream without cancellation may strand stage goroutines — always
// either drain a pipeline or cancel its context. When a ParMap item
// returns an error the stage shuts itself down (later items are never
// delivered), so an erroring pipeline needs no explicit teardown either.
package pipe

import (
	"context"
	"sync"
	"sync/atomic"
)

// Source is a pull-based iterator. Next returns the next element with
// ok=true; exhaustion is (zero, false, nil) and failure (zero, false,
// err). After the first ok=false return the source is spent: further
// calls keep returning ok=false. Sources are for single-consumer use;
// Next must not be called concurrently.
type Source[T any] interface {
	Next(ctx context.Context) (T, bool, error)
}

// Stage is one composable pipeline stage: it wraps an upstream source
// into a downstream one. Stages compose by application:
//
//	out := fuse(cluster(prepare(src)))
type Stage[In, Out any] func(Source[In]) Source[Out]

// sliceSource iterates a slice.
type sliceSource[T any] struct {
	items []T
	next  int
}

// FromSlice returns a Source over the slice, in order. The slice is
// retained, not copied.
func FromSlice[T any](items []T) Source[T] {
	return &sliceSource[T]{items: items}
}

func (s *sliceSource[T]) Next(ctx context.Context) (T, bool, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, false, err
	}
	if s.next >= len(s.items) {
		return zero, false, nil
	}
	item := s.items[s.next]
	s.next++
	return item, true, nil
}

// chanSource iterates a channel until it closes.
type chanSource[T any] struct {
	ch <-chan T
}

// FromChan returns a Source that receives from ch until ch closes (ok
// becomes false) or the context is cancelled (err is ctx.Err()).
func FromChan[T any](ch <-chan T) Source[T] {
	return &chanSource[T]{ch: ch}
}

func (s *chanSource[T]) Next(ctx context.Context) (T, bool, error) {
	var zero T
	select {
	case <-ctx.Done():
		return zero, false, ctx.Err()
	case item, ok := <-s.ch:
		if !ok {
			return zero, false, nil
		}
		return item, true, nil
	}
}

// mapSource applies fn on pull.
type mapSource[In, Out any] struct {
	src  Source[In]
	fn   func(context.Context, In) (Out, error)
	done bool
}

// Map returns the serial transformation stage: each pull takes one item
// from the upstream and applies fn. No goroutines, no buffering — pure
// laziness. An fn error ends the stage.
func Map[In, Out any](fn func(context.Context, In) (Out, error)) Stage[In, Out] {
	return func(src Source[In]) Source[Out] {
		return &mapSource[In, Out]{src: src, fn: fn}
	}
}

func (s *mapSource[In, Out]) Next(ctx context.Context) (Out, bool, error) {
	var zero Out
	if s.done {
		return zero, false, nil
	}
	in, ok, err := s.src.Next(ctx)
	if err != nil || !ok {
		s.done = true
		return zero, false, err
	}
	out, err := s.fn(ctx, in)
	if err != nil {
		s.done = true
		return zero, false, err
	}
	return out, true, nil
}

// parItem is one in-flight ParMap computation: the result channel the
// worker will fulfill, queued in input order.
type parItem[Out any] struct {
	res chan parResult[Out]
}

type parResult[Out any] struct {
	out Out
	err error
}

// parMapSource is the ordered parallel stage described on ParMap.
type parMapSource[In, Out any] struct {
	src     Source[In]
	fn      func(context.Context, In) (Out, error)
	workers int

	start sync.Once
	stop  chan struct{} // closed on first delivered error: tears the stage down
	once  sync.Once
	order chan parItem[Out] // pending results, input order; cap bounds in-flight items
	done  bool
}

// ParMap returns the ordered parallel transformation stage: up to workers
// goroutines apply fn concurrently, and results are delivered strictly in
// input order — output is byte-identical for every worker count. At most
// 2×workers items are in flight (being computed or waiting, computed, for
// an earlier item), so scratch is bounded by the worker count, not the
// input length. workers < 1 is treated as 1.
//
// The stage's goroutines start lazily on the first pull and exit when the
// upstream is exhausted and drained, the context is cancelled, or any fn
// call returns an error (the error is delivered at its item's position
// and ends the stage: later items are never delivered).
//
// fn receives a stage-scoped context derived from the pull context: it is
// cancelled when the stage tears down — on a delivered error or outer
// cancellation — so in-flight sibling computations whose results can no
// longer be delivered (a fetch mid-retry, a blocking call) observe the
// teardown and abort promptly instead of running to completion unseen.
func ParMap[In, Out any](workers int, fn func(context.Context, In) (Out, error)) Stage[In, Out] {
	if workers < 1 {
		workers = 1
	}
	return func(src Source[In]) Source[Out] {
		return &parMapSource[In, Out]{src: src, fn: fn, workers: workers}
	}
}

func (s *parMapSource[In, Out]) shutdown() { s.once.Do(func() { close(s.stop) }) }

// run is the dispatcher: it pulls the upstream serially and hands each
// item to the worker pool, queueing the item's result slot in input
// order. The order channel's capacity is the in-flight bound.
func (s *parMapSource[In, Out]) run(ctx context.Context) {
	type job struct {
		in  In
		res chan parResult[Out]
	}
	// The stage-scoped context handed to fn: cancelled on teardown (first
	// delivered error or outer cancellation), so in-flight siblings whose
	// results will never be read abort promptly. Workers are joined before
	// the final cancel, so a successful drain never cancels a live fn.
	sctx, cancel := context.WithCancel(ctx)
	go func() {
		select {
		case <-s.stop:
		case <-sctx.Done():
		}
		cancel()
	}()
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out, err := s.fn(sctx, j.in)
				j.res <- parResult[Out]{out: out, err: err} // cap 1: never blocks
			}
		}()
	}
	go func() {
		defer func() {
			close(jobs)
			wg.Wait()
			cancel()
			close(s.order)
		}()
		for {
			in, ok, err := s.src.Next(sctx)
			if err != nil {
				res := make(chan parResult[Out], 1)
				res <- parResult[Out]{err: err}
				select {
				case s.order <- parItem[Out]{res: res}:
				case <-ctx.Done():
				case <-s.stop:
				}
				return
			}
			if !ok {
				return
			}
			res := make(chan parResult[Out], 1)
			select {
			case s.order <- parItem[Out]{res: res}:
			case <-ctx.Done():
				return
			case <-s.stop:
				return
			}
			select {
			case jobs <- job{in: in, res: res}:
			case <-ctx.Done():
				return
			case <-s.stop:
				return
			}
		}
	}()
}

func (s *parMapSource[In, Out]) Next(ctx context.Context) (Out, bool, error) {
	var zero Out
	if s.done {
		return zero, false, nil
	}
	s.start.Do(func() {
		s.stop = make(chan struct{})
		s.order = make(chan parItem[Out], s.workers)
		s.run(ctx)
	})
	select {
	case <-ctx.Done():
		s.done = true
		s.shutdown()
		return zero, false, ctx.Err()
	case item, ok := <-s.order:
		if !ok {
			s.done = true
			return zero, false, nil
		}
		select {
		case <-ctx.Done():
			s.done = true
			s.shutdown()
			return zero, false, ctx.Err()
		case r := <-item.res:
			if r.err != nil {
				s.done = true
				s.shutdown()
				return zero, false, r.err
			}
			return r.out, true, nil
		}
	}
}

// bufItem carries one element or the upstream's terminal error across the
// stage boundary.
type bufItem[T any] struct {
	val T
	err error
}

// bufSource is the stage boundary described on Buffer.
type bufSource[T any] struct {
	src   Source[T]
	depth int

	start sync.Once
	ch    chan bufItem[T]
	done  bool
}

// Buffer returns a stage boundary: the upstream runs in its own goroutine
// feeding a channel of the given capacity, so pulls from downstream
// overlap the upstream's work. Depth 0 is an unbuffered handoff — the
// upstream still computes one item ahead while the consumer processes the
// previous one; larger depths let it run further ahead. The goroutine
// starts on the first pull and exits when the upstream is exhausted (its
// terminal error, if any, is delivered in position) or the context is
// cancelled.
func Buffer[T any](depth int) Stage[T, T] {
	if depth < 0 {
		depth = 0
	}
	return func(src Source[T]) Source[T] {
		return &bufSource[T]{src: src, depth: depth}
	}
}

func (s *bufSource[T]) Next(ctx context.Context) (T, bool, error) {
	var zero T
	if s.done {
		return zero, false, nil
	}
	s.start.Do(func() {
		s.ch = make(chan bufItem[T], s.depth)
		go func() {
			defer close(s.ch)
			for {
				item, ok, err := s.src.Next(ctx)
				if err != nil {
					select {
					case s.ch <- bufItem[T]{err: err}:
					case <-ctx.Done():
					}
					return
				}
				if !ok {
					return
				}
				select {
				case s.ch <- bufItem[T]{val: item}:
				case <-ctx.Done():
					return
				}
			}
		}()
	})
	select {
	case <-ctx.Done():
		s.done = true
		return zero, false, ctx.Err()
	case item, ok := <-s.ch:
		if !ok {
			s.done = true
			return zero, false, nil
		}
		if item.err != nil {
			s.done = true
			return zero, false, item.err
		}
		return item.val, true, nil
	}
}

// Collect drains the source into a slice. On error the partial slice is
// discarded and the error returned.
func Collect[T any](ctx context.Context, src Source[T]) ([]T, error) {
	var out []T
	for {
		item, ok, err := src.Next(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, item)
	}
}

// Gauge tracks a current value and its high-water mark, atomically — the
// instrumentation hook for "peak in-flight offers" style measurements.
// The zero Gauge is ready to use; a nil *Gauge is a no-op on every
// method, so call sites need no guards.
type Gauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// Add moves the current value by n (negative to release) and folds the
// new value into the peak.
func (g *Gauge) Add(n int) {
	if g == nil {
		return
	}
	cur := g.cur.Add(int64(n))
	for {
		p := g.peak.Load()
		if cur <= p || g.peak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// Current returns the current value.
func (g *Gauge) Current() int {
	if g == nil {
		return 0
	}
	return int(g.cur.Load())
}

// Peak returns the high-water mark.
func (g *Gauge) Peak() int {
	if g == nil {
		return 0
	}
	return int(g.peak.Load())
}
