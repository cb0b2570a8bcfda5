package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no bound
}

// runSet is one side of a comparison: run results by file name.
type runSet map[string]result

// loadRuns reads every *.json file in dir; each holds a benchmark run's
// standard output, whose last line is the result. The file name starts
// with the workload and a dash, as in feed-seed3.json, and pairs the run
// with the same-named run of the other side.
func loadRuns(dir string) (runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	runs := make(runSet)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", p, err)
		}
		runs[filepath.Base(p)] = r
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no *.json runs", dir)
	}
	return runs, nil
}

func workloadOf(file string) string {
	w, _, _ := strings.Cut(file, "-")
	return w
}

// verdict applies the gain rule: the change must win at least 9 of 10
// pairs (ties count for neither side) and its median must differ from
// the parent's by more than the parent's interquartile distance. Without
// a gain, a metric whose parent spread exceeds its bound is unresolved
// (unless every change run beats every parent run, which is a gain), and
// one whose median worsened by more than the bound is a regression.
// It also returns the pairs the change won.
func verdict(m specMetric, parent, change []float64, pairs [][2]float64, moreFailures bool) (string, int) {
	better := func(c, p float64) bool {
		if m.Better == "higher" {
			return c > p
		}
		return c < p
	}
	medP, medC := median(parent), median(change)
	q1, q3 := quartiles(parent)
	wins := 0
	for _, pr := range pairs {
		if better(pr[1], pr[0]) {
			wins++
		}
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	gain := len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)) &&
		better(medC, medP) && math.Abs(medC-medP) > q3-q1
	switch {
	case (gain || allBetter) && moreFailures:
		return "gain not counted: more failed operations", wins
	case gain || allBetter:
		return "gain", wins
	case m.Bound == 0:
		return "no bound", wins
	case spread(parent) > m.Bound:
		return "unresolved", wins
	case better(medP, medC) && math.Abs(medC-medP) > m.Bound*math.Abs(medP):
		return "regression", wins
	default:
		return "within bound", wins
	}
}

// compareMain is the compare mode: perfbench compare [-spec FILE]
// PARENT_DIR CHANGE_DIR. It prints each workload × metric with both
// sides' median and quartiles, the pairs won, and the verdict. It exits
// 1 when any metric regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with metric directions and bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	parent, err := loadRuns(fs.Arg(0))
	if err == nil {
		var change runSet
		if change, err = loadRuns(fs.Arg(1)); err == nil {
			return printComparison(append(spec.EndToEnd, spec.PerLayer...), parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 2
}

func printComparison(metricsList []specMetric, parent, change runSet) int {
	workloads := make(map[string]bool)
	for f := range parent {
		workloads[workloadOf(f)] = true
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)

	regressions := 0
	for _, w := range names {
		failedP, failedC := 0, 0
		for f, r := range parent {
			if workloadOf(f) == w {
				failedP += r.Failed
			}
		}
		for f, r := range change {
			if workloadOf(f) == w {
				failedC += r.Failed
			}
		}
		fmt.Printf("== %s (failed operations: parent %d, change %d)\n", w, failedP, failedC)
		fmt.Printf("  %-26s %-6s %-34s %-34s %-6s %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
		for _, m := range metricsList {
			var pv, cv []float64
			var pairs [][2]float64
			for f, r := range parent {
				if workloadOf(f) != w {
					continue
				}
				pm, ok := r.Metrics[m.Name]
				if !ok {
					continue
				}
				pv = append(pv, pm.Value)
				if cr, ok := change[f]; ok {
					if cm, ok := cr.Metrics[m.Name]; ok {
						pairs = append(pairs, [2]float64{pm.Value, cm.Value})
					}
				}
			}
			for f, r := range change {
				if cm, ok := r.Metrics[m.Name]; ok && workloadOf(f) == w {
					cv = append(cv, cm.Value)
				}
			}
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v, wins := verdict(m, pv, cv, pairs, failedC > failedP)
			if v == "regression" {
				regressions++
			}
			fmt.Printf("  %-26s %-6s %-34s %-34s %-6s %s\n", m.Name, m.Unit, medianQuartiles(pv), medianQuartiles(cv),
				fmt.Sprintf("%d/%d", wins, len(pairs)), v)
		}
	}
	if regressions > 0 {
		return 1
	}
	return 0
}

func medianQuartiles(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), q1, q3)
}
