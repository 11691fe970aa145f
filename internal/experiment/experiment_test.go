package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// testParams returns a scaled-down deployment (n=400) that keeps Monte
// Carlo cheap while preserving the density (g ≈ 22).
func testParams() analysis.Params {
	p := analysis.Defaults()
	p.N = 400
	p.L = 20
	p.Q = 8
	p.FieldWidth, p.FieldHeight = 2250, 2250
	return p
}

func TestMeasurePointValidation(t *testing.T) {
	p := testParams()
	if _, err := MeasurePoint(PointConfig{Params: p, Runs: 0}); err == nil {
		t.Fatal("accepted zero runs")
	}
	bad := p
	bad.M = 0
	if _, err := MeasurePoint(PointConfig{Params: bad, Runs: 1}); err == nil {
		t.Fatal("accepted invalid params")
	}
	if _, err := MeasurePoint(PointConfig{Params: p, Runs: 1, Jammer: core.JammerKind(99)}); err == nil {
		t.Fatal("accepted unknown jammer")
	}
	if _, err := MeasurePoint(PointConfig{Params: p, Runs: 1, Jammer: core.JamSweep}); err == nil {
		t.Fatal("accepted the sweep jammer, which needs a simulation clock")
	}
}

func TestMeasurePointNoJammerMatchesSharingProbability(t *testing.T) {
	// Without jamming, P̂_D equals the probability two nodes share at
	// least one code: 1 − (1 − (l−1)/(n−1))^m.
	p := testParams()
	p.Q = 0
	m, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamNone, Runs: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pShare := float64(p.L-1) / float64(p.N-1)
	want := 1 - math.Pow(1-pShare, float64(p.M))
	if math.Abs(m.PD-want) > 0.03 {
		t.Fatalf("P̂_D = %v, want ≈ %v (pure sharing probability)", m.PD, want)
	}
	if m.PHat < m.PD || m.PHat > 1 {
		t.Fatalf("P̂ = %v inconsistent with P̂_D = %v", m.PHat, m.PD)
	}
}

func TestMeasurePointReactiveMatchesTheorem1(t *testing.T) {
	p := testParams()
	p.Q = 20
	m, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamReactive, Runs: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := analysis.DNDPReactive(p)
	if math.Abs(m.PD-want) > 0.04 {
		t.Fatalf("P̂_D = %v, Theorem 1 reactive bound %v", m.PD, want)
	}
}

func TestMeasurePointRandomJammerBetweenBounds(t *testing.T) {
	p := testParams()
	p.Q = 20
	p.Z = 2 // weak jammer so the bounds separate
	m, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamRandom, Runs: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lower, upper := analysis.DNDPBounds(p)
	if m.PD < lower-0.04 || m.PD > upper+0.04 {
		t.Fatalf("random-jammer P̂_D = %v outside [%v, %v]", m.PD, lower, upper)
	}
	// Random jamming is weaker than reactive.
	reactive, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamReactive, Runs: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.PD < reactive.PD-0.02 {
		t.Fatalf("random jammer (%v) outperformed reactive (%v)", m.PD, reactive.PD)
	}
}

func TestConfidenceIntervalsShrinkWithRuns(t *testing.T) {
	p := testParams()
	few, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamReactive, Runs: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	many, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamReactive, Runs: 12, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if few.PDCI <= 0 || many.PDCI <= 0 {
		t.Fatal("CIs must be positive with >= 2 runs")
	}
	if many.PDCI >= few.PDCI {
		t.Fatalf("CI did not shrink: %v (3 runs) vs %v (12 runs)", few.PDCI, many.PDCI)
	}
	// The CI must bracket the Theorem-1 value at a few sigma.
	want := analysis.DNDPReactive(p)
	if math.Abs(many.PD-want) > 4*many.PDCI+0.02 {
		t.Fatalf("P̂_D = %v ± %v too far from theory %v", many.PD, many.PDCI, want)
	}
	single, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamReactive, Runs: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if single.PDCI != 0 {
		t.Fatal("CI with a single run must be 0")
	}
}

func TestMNDPImprovesOnDNDP(t *testing.T) {
	p := testParams()
	p.Q = 30 // substantial compromise so D-NDP suffers
	m, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamReactive, Runs: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.PHat <= m.PD {
		t.Fatalf("JR-SND (%v) did not improve on D-NDP (%v)", m.PHat, m.PD)
	}
	// Theorem 3 assumes every physical neighbor participates; with q
	// compromised (non-participating) nodes the effective degree shrinks
	// by (1 − q/n), so compare against the bound at the reduced degree.
	gEff := m.AvgDegree * (1 - float64(p.Q)/float64(p.N))
	bound := analysis.MNDPLowerBound(m.PD, gEff)
	if m.PM < bound-0.1 {
		t.Fatalf("P̂_M = %v well below the Theorem 3 bound %v (g_eff=%v)", m.PM, bound, gEff)
	}
}

func TestIterateMNDPMonotone(t *testing.T) {
	p := testParams()
	p.Q = 30
	single, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamReactive, Runs: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	iterated, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamReactive, Runs: 3, Seed: 5, IterateMNDP: true})
	if err != nil {
		t.Fatal(err)
	}
	if iterated.PHat < single.PHat-1e-9 {
		t.Fatalf("iterated M-NDP (%v) below single round (%v)", iterated.PHat, single.PHat)
	}
}

func TestRedundancyAblationHurtsUnderRandomJamming(t *testing.T) {
	p := testParams()
	p.Q = 60
	p.Z = 30 // strong random jammer: sub-session survival matters
	with, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamRandom, Runs: 6, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	without, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamRandom, Runs: 6, Seed: 6, DisableRedundancy: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.PD >= with.PD {
		t.Fatalf("disabling redundancy did not hurt: with=%v without=%v", with.PD, without.PD)
	}
}

func TestLatencyMeasuresMatchTheorems(t *testing.T) {
	p := testParams()
	m, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamNone, Runs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wantTD := analysis.DNDPLatency(p)
	if math.Abs(m.TD-wantTD) > 0.1*wantTD {
		t.Fatalf("T̄_D = %v, Theorem 2 gives %v", m.TD, wantTD)
	}
	// Latency distribution: the median tracks the mean (the delay model is
	// a sum of uniforms, nearly symmetric) and the tail sits above it.
	if math.Abs(m.TD50-m.TD) > 0.15*m.TD {
		t.Fatalf("TD50 = %v far from mean %v", m.TD50, m.TD)
	}
	if m.TD95 <= m.TD50 {
		t.Fatalf("TD95 = %v not above TD50 = %v", m.TD95, m.TD50)
	}
	wantTM := analysis.MNDPLatency(p, p.Nu, m.AvgDegree)
	if math.Abs(m.TM-wantTM) > 1e-9 {
		t.Fatalf("T̄_M = %v, want %v", m.TM, wantTM)
	}
	if m.TBar != math.Max(m.TD, m.TM) {
		t.Fatalf("T̄ = %v is not max(T̄_D, T̄_M)", m.TBar)
	}
}

func TestFiguresSmoke(t *testing.T) {
	// Scaled-down pass over every registered experiment: runs must succeed
	// and produce full-length, in-range series, pinned as goldens.
	if testing.Short() {
		t.Skip("figure sweeps are slow; skipped with -short")
	}
	// Pinned elsewhere: dsss, ext-noise and ext-adaptive-nu by their own
	// tests at cheaper arguments, fig3b (which sweeps n itself) by
	// TestFig3bSweepsN.
	pinnedElsewhere := map[string]bool{"dsss": true, "ext-noise": true, "ext-adaptive-nu": true, "fig3b": true}
	cfg := SweepConfig{Base: testParams(), Runs: 2, Seed: 9, Jammer: core.JamReactive}
	for _, e := range Experiments {
		if pinnedElsewhere[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			fig, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != e.ID {
				t.Fatalf("figure id %q", fig.ID)
			}
			checkGolden(t, e.ID, fig)
			if len(fig.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range fig.Series {
				if len(s.X) != len(s.Y) || len(s.X) == 0 {
					t.Fatalf("%s: malformed series", s.Label)
				}
				if strings.Contains(fig.YLabel, "P̂") {
					for i, y := range s.Y {
						if y < -1e-9 || y > 1+1e-9 {
							t.Fatalf("%s[%d]: probability %v out of range", s.Label, i, y)
						}
					}
				}
			}
		})
	}
}

// TestSweepHonoursJamNone guards the zero-value default: core.JamNone must
// reach the sweep's points instead of being replaced by reactive jamming.
func TestSweepHonoursJamNone(t *testing.T) {
	fig, err := Fig4(SweepConfig{Base: testParams(), Runs: 1, Jammer: core.JamNone}, 40)
	if err != nil {
		t.Fatal(err)
	}
	const last = 10 // q = 100, the sweep's last point
	if q := fig.Series[0].X[last]; q != 100 {
		t.Fatalf("point %d is q=%v, want 100", last, q)
	}
	p := testParams()
	p.L, p.Q = 40, 100
	want, err := MeasurePoint(PointConfig{Params: p, Jammer: core.JamNone, Runs: 1, Seed: last * 104729})
	if err != nil {
		t.Fatal(err)
	}
	if got := fig.Series[0].Y[last]; got != want.PD {
		t.Fatalf("Fig4 with core.JamNone reports P̂_D = %v at q=100, MeasurePoint with core.JamNone %v", got, want.PD)
	}
}

func TestFig3bSweepsN(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Fig 3(b) varies n itself, so run it with the real base but tiny runs.
	cfg := SweepConfig{Runs: 1, Seed: 10, Jammer: core.JamReactive}
	fig, err := Fig3b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "fig3b" || len(fig.Series) == 0 {
		t.Fatal("malformed fig3b")
	}
	checkGolden(t, "fig3b", fig)
}

func TestTable1Printable(t *testing.T) {
	fig := Table1()
	var sb strings.Builder
	if err := Print(&sb, fig); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"s = w*m", "5000", "lambda", "g (avg degree)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestPrintSeriesTable(t *testing.T) {
	fig := Figure{
		ID: "x", Title: "t", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "a", X: []float64{1, 2}, Y: []float64{0.5, 0.25}}},
		Notes:  []string{"hello"},
	}
	var sb strings.Builder
	if err := Print(&sb, fig); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== t [x]", "0.5000", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Print output missing %q:\n%s", want, out)
		}
	}
}

func TestDSSSValidationExperiment(t *testing.T) {
	fig, err := DSSSValidation(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dsss", fig)
	s := fig.Series[0]
	// Below the μ/(1+μ)=0.5 budget, decoding succeeds; above, it fails.
	for i, frac := range s.X {
		if frac <= 0.45 && s.Y[i] < 0.99 {
			t.Fatalf("decode rate %v at jam fraction %v, want ≈ 1", s.Y[i], frac)
		}
		if frac >= 0.55 && s.Y[i] > 0.01 {
			t.Fatalf("decode rate %v at jam fraction %v, want ≈ 0", s.Y[i], frac)
		}
	}
	if _, err := DSSSValidation(1, 0); err == nil {
		t.Fatal("accepted zero trials")
	}
}

func TestGoldComparison(t *testing.T) {
	fig, err := GoldComparison(1, 32, 500)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, s := range fig.Series {
		vals[s.Label] = s.Y[0]
	}
	goldMax := vals["gold:   max |cross-corr|"]
	bound := vals["gold bound t(9)/511"]
	if goldMax > bound+1e-12 {
		t.Fatalf("gold max cross-corr %v exceeds its bound %v", goldMax, bound)
	}
	if vals["random: max |cross-corr|"] <= goldMax {
		t.Fatalf("random family (%v) not worse than gold (%v): suspicious",
			vals["random: max |cross-corr|"], goldMax)
	}
	if vals["gold:   false-lock rate"] != 0 {
		t.Fatal("gold codes false-locked below their bound")
	}
	if _, err := GoldComparison(1, 1, 10); err == nil {
		t.Fatal("accepted familySize=1")
	}
	if _, err := GoldComparison(1, 8, 0); err == nil {
		t.Fatal("accepted trials=0")
	}
}

func TestWriteCSV(t *testing.T) {
	fig := Figure{
		ID: "x", XLabel: "x",
		Series: []Series{
			{Label: "a,b", X: []float64{1, 2}, Y: []float64{0.5, 0.25}},
			{Label: "c", X: []float64{1, 2}, Y: []float64{3, 4}},
		},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, fig); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := "x,\"a,b\",c\n1,0.5,3\n2,0.25,4\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
	// Parameter-style figure.
	tab := Figure{Series: []Series{{Label: "p", X: []float64{0}, Y: []float64{7}}}}
	sb.Reset()
	if err := WriteCSV(&sb, tab); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "p,7\n" {
		t.Fatalf("param CSV = %q", sb.String())
	}
	if err := WriteCSV(&sb, Figure{}); err != nil {
		t.Fatal("empty figure must be a no-op")
	}
}

func TestDoSExperiment(t *testing.T) {
	fig, err := DoSExperiment(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, s := range fig.Series {
		vals[s.Label] = s.Y[0]
	}
	if vals["verifications, no revocation"] <= vals["verifications, gamma=5"] {
		t.Fatalf("revocation did not reduce verification work: %+v", vals)
	}
	if vals["revoked codes, gamma=5"] == 0 {
		t.Fatal("no codes revoked under sustained attack")
	}
}
