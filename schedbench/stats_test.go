package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if !slices.Equal(xs, []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}) {
		t.Error("quantile reordered its input")
	}
	// A missed request (+Inf) must not turn an interpolated quantile into NaN.
	if got := quantile([]float64{1, 2, math.Inf(1), math.Inf(1)}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("quantile over missed requests = %v, want +Inf", got)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailOf must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want string
	}{{20, "max"}, {40, "p75"}, {100, "p90"}, {900, "p90"}, {1000, "p99"}, {20000, "p99.9"}} {
		xs := ramp(c.n)
		tl := tailOf(xs)
		if tl.Percentile != c.want || tl.N != c.n {
			t.Errorf("n=%d: tail %+v, want %s over %d samples", c.n, tl, c.want, c.n)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond != tl.Beyond {
			t.Errorf("n=%d: reports %d samples beyond %v, counted %d", c.n, tl.Beyond, tl.Value, beyond)
		}
		if tl.Percentile != "max" && beyond < minBeyond {
			t.Errorf("n=%d: %s has only %d samples beyond it", c.n, tl.Percentile, beyond)
		}
	}
}

func TestNamesAreChecked(t *testing.T) {
	for _, bad := range []string{"", "latency ms", "a/b", "p99%", "naïve"} {
		if checkName("metric", bad) == nil {
			t.Errorf("checkName accepted %q", bad)
		}
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if err := checkName("metric", d.name); err != nil {
			t.Error(err)
		}
	}
	for name := range workloads {
		if err := checkName("workload", name); err != nil {
			t.Error(err)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metrics this program prints in
// step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}
