package experiment

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestBuildReportScaledDown(t *testing.T) {
	if testing.Short() {
		t.Skip("full report pass is slow")
	}
	// A scaled deployment with preserved density: claim checks that depend
	// on absolute anchor values (q=100 at n=2000) are evaluated but not
	// asserted here — this test checks the machinery, the bench/cmd pass
	// checks the claims at full scale.
	cfg := SweepConfig{Base: testParams(), Runs: 1, Seed: 5, Jammer: core.JamReactive}
	report, err := BuildReport(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Figures) < 10 {
		t.Fatalf("report has %d figures, want >= 10", len(report.Figures))
	}
	if len(report.Checks) < 12 {
		t.Fatalf("report has %d claim checks, want >= 12", len(report.Checks))
	}
	var sb strings.Builder
	if err := WriteMarkdown(&sb, report); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# JR-SND reproduction report", "Claim checks", "| fig2a |", "Measured series"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q", want)
		}
	}
}

func TestReportHelpers(t *testing.T) {
	if valueAt([]float64{1, 2, 3}, []float64{10, 20, 30}, 2) != 20 {
		t.Fatal("valueAt wrong")
	}
	if valueAt([]float64{1}, []float64{10}, 9) != -1 {
		t.Fatal("valueAt miss should be -1")
	}
	if last(nil) != 0 || last([]float64{1, 5}) != 5 {
		t.Fatal("last wrong")
	}
	if argmax([]float64{1, 7, 3}) != 1 {
		t.Fatal("argmax wrong")
	}
	if maxOf([]float64{1, 7, 3}) != 7 || minOf([]float64{4, 2, 9}) != 2 {
		t.Fatal("maxOf/minOf wrong")
	}
	if !nonDecreasing([]float64{1, 1.5, 1.4}, 0.2) || nonDecreasing([]float64{1, 0.5}, 0.1) {
		t.Fatal("nonDecreasing wrong")
	}
	if !nonIncreasing([]float64{3, 2, 2.1}, 0.2) || nonIncreasing([]float64{1, 2}, 0.1) {
		t.Fatal("nonIncreasing wrong")
	}
}
