package main

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// smokeOptions shrink a run to about a second: enough to produce every
// metric, not enough to mean anything.
var smokeOptions = runOptions{seed: 7, rounds: 1, window: time.Second, warmup: 200 * time.Millisecond,
	saturateDur: 500 * time.Millisecond, trace: true, traceOps: 500, traceDur: 500 * time.Millisecond,
	probe: probeSizes{fast: 2000, call: 100, timed: 10}}

func checkMetrics(t *testing.T, what string, got map[string]float64, want []string) {
	t.Helper()
	for _, name := range want {
		v, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s is missing", what, name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s is %v", what, name, v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, %d named", what, len(got), len(want))
	}
}

// TestSmoke runs every workload for a second with a 500-operation
// traced pass, and checks that every named metric is there and finite
// and that no operation failed.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // each workload sets its own
	for _, w := range workloads() {
		res, err := w.run(smokeOptions)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.FailShare != 0 {
			t.Errorf("%s: fail_share = %g (%d of %d)", w.name, res.FailShare, res.Failed, res.Attempted)
		}
		checkMetrics(t, w.name+" end to end", res.EndToEnd, endToEndNames)
		checkMetrics(t, w.name+" per layer", res.PerLayer, perLayerNames())
		for name, v := range res.EndToEnd {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, name, v)
			}
		}
		if w.rate > 0 && res.AliasOf["rate_ok_per_s"] != "" {
			t.Errorf("%s: the saturation phase did not run", w.name)
		}
	}
}

// TestBenchmarkFile holds BENCHMARK.json to the names in this package.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []boundedMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	for _, m := range bf.EndToEnd {
		if (m.Better == "higher") != higherIsBetter[m.Name] {
			t.Errorf("end_to_end %s: BENCHMARK.json says %q is better, the program disagrees", m.Name, m.Better)
		}
	}
	same("per_layer", bf.PerLayer, perLayer())
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bf.Workloads[i].Name, w.name)
		}
	}
}

func TestSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
