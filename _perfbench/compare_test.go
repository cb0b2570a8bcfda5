package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 102, 98, 100, 101, 99, 100, 100}
	pairsOf := func(change []float64) [][2]float64 {
		var ps [][2]float64
		for i := range parent {
			ps = append(ps, [2]float64{parent[i], change[i]})
		}
		return ps
	}
	for _, tc := range []struct {
		name   string
		metric specMetric
		parent []float64
		change []float64
		more   bool
		want   string
	}{
		{"every pair faster", lower, parent, []float64{90, 91, 89, 92, 88, 90, 91, 89, 90, 90}, false, "gain"},
		{"gain with more failures", lower, parent, []float64{90, 91, 89, 92, 88, 90, 91, 89, 90, 90}, true, "gain not counted: more failed operations"},
		{"same", lower, parent, parent, false, "within bound"},
		{"slower beyond bound", lower, parent, []float64{120, 121, 119, 122, 118, 120, 121, 119, 120, 120}, false, "regression"},
		{"noisy parent", lower, []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, parent, false, "unresolved"},
		{"higher is better", specMetric{Better: "higher", Bound: 0.1}, parent, []float64{80, 81, 79, 82, 78, 80, 81, 79, 80, 80}, false, "regression"},
		{"per-layer", specMetric{Better: "lower"}, parent, parent, false, "no bound"},
	} {
		var pairs [][2]float64
		if len(tc.parent) == len(parent) && len(tc.change) == len(parent) {
			pairs = pairsOf(tc.change)
			for i := range pairs {
				pairs[i][0] = tc.parent[i]
			}
		}
		if got, _ := verdict(tc.metric, tc.parent, tc.change, pairs, tc.more); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in main.go and
// the benchmark definition at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no ../BENCHMARK.json:", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind  string
		spec  []specMetric
		table []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.spec) != len(tc.table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, main.go %d", tc.kind, len(tc.spec), len(tc.table))
			continue
		}
		for i, m := range tc.spec {
			if m.Name != tc.table[i].name || m.Unit != tc.table[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), main.go %s (%s)", tc.kind, i, m.Name, m.Unit, tc.table[i].name, tc.table[i].unit)
			}
		}
	}
}
