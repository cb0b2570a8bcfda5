package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// rungResult is one open-loop rung: every request's latency measured from
// its due time, how late the generator dispatched it, and the backlog
// (requests due but not completed) sampled at each due time.
type rungResult struct {
	Rate      float64
	Duration  time.Duration
	Latency   []float64 // ms from due time to completion, successful requests
	RoundTrip []float64 // ms from send to completion, successful requests
	Late      []float64 // ms the generator dispatched each request after its due time
	Backlog   []int
	Sent      int
	Failed    int
	// Elapsed runs from the rung's first due time to its last completion.
	Elapsed time.Duration
}

// openLoop sends requests on a fixed schedule, rate per second for dur,
// regardless of how fast they complete: request i is due at
// start + i/rate. A dispatcher goroutine hands due requests to conns
// workers, each holding one connection, through a queue sized to hold
// the whole rung, so a slow system builds a backlog instead of slowing
// the schedule. send performs request seq, due at due, and reports whether
// it failed.
func openLoop(ctx context.Context, rate float64, dur time.Duration, conns int, send func(ctx context.Context, seq int, due time.Time) error) rungResult {
	n := int(rate * dur.Seconds())
	res := rungResult{Rate: rate, Duration: dur, Sent: n}
	if n == 0 {
		return res
	}
	interval := time.Duration(float64(time.Second) / rate)

	type job struct {
		seq int
		due time.Time
	}
	type outcome struct {
		late, latency, rtt time.Duration
		err                error
	}
	outcomes := make([]outcome, n)
	queue := make(chan job, n)
	var outstanding atomic.Int64
	var lastDone atomic.Int64 // unix nanos of the latest completion

	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				sent := time.Now()
				err := send(ctx, j.seq, j.due)
				done := time.Now()
				o := &outcomes[j.seq]
				o.latency, o.rtt, o.err = done.Sub(j.due), done.Sub(sent), err
				outstanding.Add(-1)
				for {
					prev := lastDone.Load()
					if done.UnixNano() <= prev || lastDone.CompareAndSwap(prev, done.UnixNano()) {
						break
					}
				}
			}
		}()
	}

	start := time.Now()
	timer := time.NewTimer(0)
	<-timer.C
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		outcomes[i].late = max(time.Since(due), 0)
		res.Backlog = append(res.Backlog, int(outstanding.Add(1)))
		queue <- job{seq: i, due: due}
	}
	close(queue)
	wg.Wait()
	timer.Stop()

	res.Elapsed = time.Unix(0, lastDone.Load()).Sub(start)
	for _, o := range outcomes {
		res.Late = append(res.Late, ms(o.late))
		if o.err != nil {
			res.Failed++
			continue
		}
		res.Latency = append(res.Latency, ms(o.latency))
		res.RoundTrip = append(res.RoundTrip, ms(o.rtt))
	}
	return res
}

// meets reports whether the rung kept its tail latency within limitMS
// with no failures and no growing backlog. A failed request misses the
// limit by definition.
func (r rungResult) meets(limitMS float64) bool {
	if r.Sent == 0 || r.Failed > 0 || backlogGrowing(r.Backlog) {
		return false
	}
	_, t := tail(r.Latency)
	return t <= limitMS
}

// completedPerSecond is the rung's achieved throughput: successful
// requests over the time from the first due time to the last completion.
func (r rungResult) completedPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(len(r.Latency)) / r.Elapsed.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
