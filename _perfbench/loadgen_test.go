package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestOpenLoopKeepsScheduleBelowCapacity(t *testing.T) {
	res := openLoop(context.Background(), 200, 250*time.Millisecond, 2, func(context.Context, int, time.Time) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if res.Sent != 50 || len(res.Latency) != 50 || len(res.Late) != 50 || len(res.Backlog) != 50 {
		t.Fatalf("sent %d, latencies %d, lateness %d, backlog %d; want 50 of each", res.Sent, len(res.Latency), len(res.Late), len(res.Backlog))
	}
	if backlogGrowing(res.Backlog) {
		t.Errorf("backlog grows at a quarter of capacity: %v", res.Backlog)
	}
	if late := median(res.Late); late > 5 {
		t.Errorf("median lateness %.2f ms with an idle generator", late)
	}
	if elapsed := res.Elapsed; elapsed < 240*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("rung took %v, want about 250ms: the schedule is not followed", elapsed)
	}
}

func TestOpenLoopTimesFromDueTimeAboveCapacity(t *testing.T) {
	// One connection, 20ms per request, a request due every 10ms: the
	// system completes half the offered load, so request i waits for the
	// i before it and its latency, measured from its due time, grows by
	// about 10ms per request.
	res := openLoop(context.Background(), 100, 300*time.Millisecond, 1, func(context.Context, int, time.Time) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if len(res.Latency) != 30 {
		t.Fatalf("%d latencies, want 30", len(res.Latency))
	}
	first, last := res.Latency[0], res.Latency[len(res.Latency)-1]
	if first < 20 || last < first+200 {
		t.Errorf("latency from due time: first %.1f ms, last %.1f ms; want last at least 200 ms above first", first, last)
	}
	if !backlogGrowing(res.Backlog) {
		t.Errorf("backlog at twice capacity reads as stable: %v", res.Backlog)
	}
	// A closed loop would send the last request 290 ms after it was due.
	if med, worst := median(res.Late), percentile(res.Late, 100); med > 5 || worst > 100 {
		t.Errorf("generator ran %.2f ms late (median), %.2f ms (worst): a slow system must not slow the schedule", med, worst)
	}
	if res.meets(1000) {
		t.Error("a rung with a growing backlog meets the limit")
	}
	if cps := res.completedPerSecond(); cps < 30 || cps > 60 {
		t.Errorf("completed %.1f/s, want about 50/s", cps)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	res := openLoop(context.Background(), 400, 50*time.Millisecond, 2, func(_ context.Context, seq int, _ time.Time) error {
		if seq%4 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	if res.Sent != 20 || res.Failed != 5 || len(res.Latency) != 15 {
		t.Errorf("sent %d failed %d ok %d, want 20, 5, 15", res.Sent, res.Failed, len(res.Latency))
	}
	if res.meets(1e9) {
		t.Error("a rung with failures meets the limit")
	}
}
