package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

func TestPercentileReadsStoredSamples(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(samples, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if !slices.Equal(samples, []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}) {
		t.Error("percentile reordered its input")
	}
}

func TestRoundsReduceToOneValue(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	m := measurement{rounds: []roundResult{
		{throughputOps: 100, setupS: 0.3}, {throughputOps: 90, setupS: 0.5}, {throughputOps: 120, setupS: 0.4},
		{throughputOps: 95, setupS: 0.2}, {throughputOps: 110, setupS: 0.9},
	}}
	m.rounds[1].latencyP50Ms, m.rounds[3].latencyP50Ms = 2, 3
	got := m.endToEnd()
	if got["setup_s"].Value != 0.4 || got["throughput_ops"].Value != 120 || got["latency_p50_ms"].Value != 0 {
		t.Errorf("rounds reduce to %+v; want the median set-up and the best round's speed", got)
	}
	if got := relativeRange([]float64{90, 100, 120}); got != 0.3 {
		t.Errorf("relativeRange = %v, want 0.3", got)
	}
}

// The quartiles must be those of Python's statistics.quantiles(v, n=4),
// which the acceptance check uses.
func TestRelativeIQRMatchesPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// quantiles → [2.75, 5.5, 8.25]
	if got, want := relativeIQR(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relativeIQR = %v, want %v", got, want)
	}
	w := []float64{10, 20, 40}
	// quantiles → [10, 20, 40]
	if got, want := relativeIQR(w), 30.0/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("relativeIQR = %v, want %v", got, want)
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	keys, err := generateEdges(fullGraph, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2_000_000 {
		t.Fatalf("generated %d edges, want 2000000", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("edges %d and %d are not strictly increasing: not distinct", i-1, i)
		}
	}
	if last := keys[len(keys)-1]; int32(last>>32) >= fullGraph.NumLeft {
		t.Fatalf("left id %d outside the side", last>>32)
	}

	blob := func(seed uint64) []byte {
		in, err := makeInputs(smokeGraph, seed)
		if err != nil {
			t.Fatal(err)
		}
		return in.blob
	}
	if !bytes.Equal(blob(7), blob(7)) {
		t.Error("the same seed gave different bytes")
	}
	if bytes.Equal(blob(7), blob(8)) {
		t.Error("different seeds gave the same bytes")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: spanHTTP, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanServe, Start: 100, End: 170, Replayed: true},
		{ID: 3, Parent: 2, Name: spanAccountant, Start: 170, End: 180, Replayed: true},
		{ID: 4, Parent: 2, Name: spanRelease, Start: 180, End: 220, Replayed: true},
		{ID: 5, Parent: 4, Name: spanRNG, Start: 220, End: 250, Replayed: true},
		{ID: 6, Parent: 0, Name: spanHTTP, Op: 1, Start: 300, End: 360},
	}
	if got, want := selfNanos(spans), []int64{30, 20, 10, 10, 30, 60}; !slices.Equal(got, want) {
		t.Fatalf("selfNanos = %v, want %v", got, want)
	}
	dur, self := layerTimes(spans)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !near(dur[spanHTTP], 0.08) || !near(self[spanHTTP], 0.045) || !near(self[spanServe], 0.02) {
		t.Errorf("layerTimes: dur %v, self %v", dur, self)
	}
	// Self times of one operation add up to its root's duration.
	var sum int64
	for _, ns := range selfNanos(spans[:5]) {
		sum += ns
	}
	if sum != 100 {
		t.Errorf("self times of op 0 sum to %d, want the root's 100", sum)
	}
}

func TestCountNumbers(t *testing.T) {
	for _, tc := range []struct {
		body string
		n    int
		ok   bool
	}{
		{`{"marginals": [1.5, -2e3,` + "\n" + `  3]}`, 3, true},
		{`{"marginals": []}`, 0, true},
		{`{"marginals": [1, NaN]}`, 1, false},
		{`{"marginals": [1, 2`, 2, false},
		{`{"other": [1]}`, 0, false},
	} {
		if n, ok := countNumbers([]byte(tc.body), "marginals"); n != tc.n || ok != tc.ok {
			t.Errorf("countNumbers(%s) = %d, %v; want %d, %v", tc.body, n, ok, tc.n, tc.ok)
		}
	}
}

// benchmarkJSON mirrors the keys of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeRunsMatchBenchmarkJSON runs every workload untraced and
// traced at smoke size with the correctness gate on, and holds the names
// and units the harness emits to those BENCHMARK.json declares.
func TestSmokeRunsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	if len(decl.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness has %d", len(decl.EndToEnd), len(endToEndMetrics))
	}
	wantEndToEnd := map[string]string{}
	for i, em := range endToEndMetrics {
		d := decl.EndToEnd[i]
		if d.Name != em.name || d.Unit != em.unit || d.Better != em.better || d.Bound != em.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, d, em)
		}
		wantEndToEnd[em.name] = em.unit
	}
	wantPerLayer := map[string]string{}
	for _, d := range decl.PerLayer {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("per-layer metric name %q is malformed", d.Name)
		}
		wantPerLayer[d.Name] = d.Unit
	}

	scratchDir = t.TempDir()
	t.Setenv("TMPDIR", scratchDir)
	in, err := makeInputs(smokeGraph, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, res result, want map[string]string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		for name, v := range res.Metrics {
			if unit, ok := want[name]; !ok || unit != v.Unit {
				t.Errorf("emitted %s [%s]; BENCHMARK.json has unit %q (declared: %v)", name, v.Unit, unit, ok)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s = %v", name, v.Value)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("BENCHMARK.json declares %s, the run did not emit it", name)
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runMeasured([]*workload{w}, in, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, wantEndToEnd)
			for name, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, v.Value)
				}
			}
			res, err = runTraced(w, in, 1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, wantPerLayer)
		})
	}
}
