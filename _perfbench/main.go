// Command perfbench is prodsynth's benchmark. One run drives one named
// workload over a generated marketplace, checks that every output is
// correct, and prints its metrics; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload learn|feed|serve --seed N --seconds S --trace 0|1
//	perfbench compare PARENT_DIR CHANGE_DIR
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once recomposed from the layers' public
// functions with a span around each call, and prints the per-layer
// metrics. See README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists below must
// agree with BENCHMARK.json; TestMetricsMatchBenchmarkJSON checks that.
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run, whatever the workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"learn_s", "s"},
	{"corr_precision", "ratio"},
	{"corr_recall", "ratio"},
	{"products", "count"},
	{"attr_precision", "ratio"},
	{"product_precision", "ratio"},
	{"offers_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"success_rate", "ratio"},
	{"peak_heap_mb", "MB"},
}

// perLayer is printed by every traced run; a layer a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"categorize.s", "s"},
	{"extract.s", "s"},
	{"extract.pages", "count"},
	{"extract.pairs", "count"},
	{"match.s", "s"},
	{"match.matched", "count"},
	{"match.index_builds", "count"},
	{"match.deltas", "count"},
	{"correspond.features_s", "s"},
	{"correspond.candidates", "count"},
	{"ml.train_s", "s"},
	{"ml.train_examples", "count"},
	{"ml.score_s", "s"},
	{"fetch.calls", "count"},
	{"fetch.s", "s"},
	{"core.prepare_s", "s"},
	{"core.excluded_matched", "count"},
	{"reconcile.pairs_mapped", "count"},
	{"reconcile.pairs_dropped", "count"},
	{"stream.memory_s", "s"},
	{"stream.open_clusters_peak", "count"},
	{"stream.spills", "count"},
	{"stream.revives", "count"},
	{"fusion.s", "s"},
	{"fusion.calls", "count"},
	{"fusion.useful_ratio", "ratio"},
	{"catalog.add_s", "s"},
	{"durable.log_records", "count"},
	{"durable.log_bytes", "bytes"},
	{"durable.recover_ms", "ms"},
	{"serve.library_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.request_kb", "KB"},
	{"serve.response_kb", "KB"},
	{"serve.inflight_peak", "count"},
	{"serve.shed", "count"},
	{"serve.max_rps", "1/s"},
	{"loadgen.late_ms", "ms"},
	{"go.gc_cpu_s", "s"},
	{"go.alloc_mb", "MB"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	workDir  string // scratch for durable directories and span files
}

// outcome is what a workload hands back: operations attempted and
// failed, whether every check held, and metric values by name.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// fail records a failed check; any failure makes the run incorrect.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload to run: learn, feed or serve")
	seed := flag.Int64("seed", 1, "marketplace seed")
	seconds := flag.Int("seconds", 10, "how long the timed region runs")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	workDir := flag.String("work-dir", filepath.Join(".bench_build", "perfbench"), "scratch directory inside the checkout")
	daemonMode := flag.Bool("serve-daemon", false, "run as the serve workload's daemon process (started by the serve workload)")
	flag.Parse()
	if *daemonMode {
		if err := runDaemon(context.Background(), *seed, *workDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench daemon:", err)
			os.Exit(1)
		}
		return
	}

	runs := map[string][2]func(context.Context, runConfig) (*outcome, error){
		"learn": {runLearn, traceLearn},
		"feed":  {runFeed, traceFeed},
		"serve": {runServe, traceServe},
	}
	fns, ok := runs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload learn|feed|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	cfg.workDir = filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(cfg.workDir)

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out, err := fns[*trace](context.Background(), cfg)
	if err != nil {
		os.RemoveAll(cfg.workDir)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: out.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report prints one human-readable metric line.
func report(name string, value float64, unit string) {
	fmt.Printf("  %-28s %14.4f %s\n", name, value, unit)
}

// reportLayers prints the traced metrics a workload filled in, sorted.
func reportLayers(values map[string]float64) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		report(n, values[n], unitOf(n))
	}
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// timeSetups runs setup setupRepeats times, keeping the last result and
// closing the others, and returns the median duration in seconds.
func timeSetups[E interface{ close() }](setup func() (E, error)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			env.close()
			runtime.GC()
		}
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	fmt.Printf("setup: %d repeats, %s s\n", setupRepeats, joinFloats(times))
	return env, median(times), nil
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// heapSampler polls the live heap (the bytes the last GC marked
// reachable) while a timed region runs and keeps the peak: the largest
// working set any GC cycle in the region saw. Live bytes, unlike the
// heap's high-water mark, do not depend on how far allocation outran the
// collector.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}

// goCounters reads the runtime's GC CPU time and cumulative allocation.
type goCounters struct{ gcCPU, allocBytes float64 }

func readGoCounters() goCounters {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return goCounters{gcCPU: s[0].Value.Float64(), allocBytes: float64(s[1].Value.Uint64())}
}

// since fills go.gc_cpu_s and go.alloc_mb with the change from c.
func (c goCounters) since(values map[string]float64) {
	now := readGoCounters()
	values["go.gc_cpu_s"] = now.gcCPU - c.gcCPU
	values["go.alloc_mb"] = (now.allocBytes - c.allocBytes) / (1 << 20)
}
