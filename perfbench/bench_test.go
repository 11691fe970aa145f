package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/faults"
)

// tinyWorkloads builds every workload at a size that runs in seconds.
func tinyWorkloads() map[string]workload {
	base := analysis.Defaults()
	base.N = 300
	base.FieldWidth *= 0.4
	base.FieldHeight *= 0.4
	return map[string]workload{
		"figure-sweep":    &figureSweep{base: base},
		"chip-channel":    &chipChannel{dsssRuns: 1},
		"protocol-engine": &protocolEngine{cells: faults.Matrix()[:2]},
		"authority":       &authority{requests: 100},
	}
}

func tinyOptions(name string, trace int) options {
	return options{workload: name, seed: defaultSeed, seconds: 1, trace: trace, pins: pinSet{}}
}

// checkMetrics asserts the result carries exactly the named metrics,
// each with its unit.
func checkMetrics(t *testing.T, res result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	e2e := map[string]string{}
	for _, m := range endToEnd {
		e2e[m.name] = m.unit
	}
	layers := map[string]string{}
	for _, m := range perLayer {
		layers[m.name] = m.unit
	}
	for name, w := range tinyWorkloads() {
		t.Run(name, func(t *testing.T) {
			defer w.close()
			res, err := runTimed(w, tinyOptions(name, 0), pinSet{}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, e2e)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			opts := tinyOptions(name, 1)
			opts.traceDir = t.TempDir()
			res, err = runTraced(w, opts, pinSet{}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			checkMetrics(t, res, layers)
			if res.Metrics["trace.layer_coverage"].Value <= 0 {
				t.Errorf("trace.layer_coverage = %v, want > 0", res.Metrics["trace.layer_coverage"].Value)
			}
		})
	}
}

// TestCorruptedPinFails checks that a pinned value the program no longer
// reproduces is counted as failed operations, not silently passed.
func TestCorruptedPinFails(t *testing.T) {
	w := tinyWorkloads()["figure-sweep"]
	defer w.close()
	if err := w.setup(defaultSeed); err != nil {
		t.Fatal(err)
	}
	pr, err := w.pass(context.Background(), defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	pins := func(corrupt bool) pinSet {
		vals := map[string]float64{}
		for _, v := range pr.out {
			vals[v.Key] = v.Value
		}
		if corrupt {
			vals[pr.out[0].Key] += 1e-12
		}
		return pinSet{"1": {"figure-sweep": vals}}
	}
	for _, corrupt := range []bool{false, true} {
		res, err := runTimed(w, tinyOptions("figure-sweep", 0), pins(corrupt), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if corrupt && (res.Correct || res.Failed == 0) {
			t.Errorf("corrupted pin: correct=%v failed=%d, want a counted failure", res.Correct, res.Failed)
		}
		if !corrupt && (!res.Correct || res.Failed != 0) {
			t.Errorf("exact pins: correct=%v failed=%d, want no failures", res.Correct, res.Failed)
		}
	}
}

// TestFigurePassMatchesLibrary checks that the figure-sweep pass, which
// sweeps the points itself, reproduces experiment.Fig2a and Fig5b.
func TestFigurePassMatchesLibrary(t *testing.T) {
	f := tinyWorkloads()["figure-sweep"].(*figureSweep)
	if err := f.setup(heldOutSeed); err != nil {
		t.Fatal(err)
	}
	pr, err := f.pass(context.Background(), heldOutSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.figures(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	if bad := diff(want, pr.out); len(bad) > 0 || len(want) == 0 {
		t.Fatalf("%d of %d outputs differ from the library's figures, first %v", len(bad), len(want), bad)
	}
}

// TestAuthorityBatchesNeverExhaust sends more full-size batches than one
// deployment has slots for and checks that no request fails, so every
// timed request takes the full write path rather than the refusal path.
func TestAuthorityBatchesNeverExhaust(t *testing.T) {
	a := &authority{}
	defer a.close()
	if err := a.setup(defaultSeed); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pr, err := a.pass(context.Background(), passSeed(defaultSeed, i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if pr.ops != a.requests || pr.failed != 0 {
			t.Fatalf("batch %d: %d of %d requests done, %d failed", i, pr.ops, a.requests, pr.failed)
		}
	}
}

// TestEmbeddedPinsCoverBothSeeds checks the checked-in oracle.
func TestEmbeddedPinsCoverBothSeeds(t *testing.T) {
	pins, err := embeddedPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		for _, name := range pinnedWorkloads {
			if out, ok := pins.lookup(seed, name); !ok || len(out) == 0 {
				t.Errorf("no pins for %s at seed %d", name, seed)
			}
		}
	}
	fig, _ := pins.lookup(defaultSeed, "protocol-engine")
	discovered := 0.0
	for _, v := range fig {
		if strings.HasSuffix(v.Key, "/discovered") {
			discovered += v.Value
		}
	}
	if discovered != 1402 {
		t.Errorf("protocol-engine pins: %v discoveries at seed 1, want 1402", discovered)
	}
}

func TestFirstDivergentStage(t *testing.T) {
	want := experiment.PointMeasure{PD: 0.5, PM: 0.7, PHat: 0.9, AvgDegree: 20, Edges: 100, TD: 1.5}
	got := want
	if s := firstDivergentStage(want, got); s != "" {
		t.Errorf("identical points diverge at %q", s)
	}
	got.PM = 0.6
	if s := firstDivergentStage(want, got); s != "field.hop_search" {
		t.Errorf("PM mismatch named %q, want field.hop_search", s)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json in step with the
// metrics and workloads the program emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	type nu struct{ Name, Unit string }
	var e2e, layers []nu
	for _, m := range endToEnd {
		e2e = append(e2e, nu{m.name, m.unit})
	}
	for _, m := range perLayer {
		layers = append(layers, nu{m.name, m.unit})
	}
	var gotE2E, gotLayers []nu
	for _, m := range spec.EndToEnd {
		gotE2E = append(gotE2E, nu(m))
	}
	for _, m := range spec.PerLayer {
		gotLayers = append(gotLayers, nu(m))
	}
	if !reflect.DeepEqual(gotE2E, e2e) {
		t.Errorf("end_to_end %v, program emits %v", gotE2E, e2e)
	}
	if !reflect.DeepEqual(gotLayers, layers) {
		t.Errorf("per_layer %v, program emits %v", gotLayers, layers)
	}
}
