package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are offsets from
// the tracer's epoch. Unit ties spans of one wave or request together.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: root
	Name   string        `json:"name"`
	Unit   int           `json:"unit"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, unit int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, parent, unit int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Unit: unit,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children. Children may overlap one another
// (parallel work), so their intervals are merged before subtracting; a
// child reaching outside its parent is clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// largestShare names the span with the most self time among names.
func largestShare(self map[string]time.Duration, names []string) string {
	best := ""
	for _, n := range names {
		if best == "" || self[n] > self[best] {
			best = n
		}
	}
	return best
}

// spanFile is the file name spans of one run are written to.
func spanFile(workload string, seed int64) string {
	return fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)
}
