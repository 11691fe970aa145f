package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func TestExtAntennas(t *testing.T) {
	fig, err := ExtAntennas(analysis.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "ext-antennas" || len(fig.Series) != 3 {
		t.Fatalf("malformed figure: %+v", fig.ID)
	}
	lat := fig.Series[0]
	// k=1 equals Theorem 2; strictly decreasing after.
	if math.Abs(lat.Y[0]-analysis.DNDPLatency(analysis.Defaults())) > 1e-12 {
		t.Fatalf("k=1 latency %v != Theorem 2", lat.Y[0])
	}
	for i := 1; i < len(lat.Y); i++ {
		if lat.Y[i] >= lat.Y[i-1] {
			t.Fatalf("latency not decreasing at k=%v", lat.X[i])
		}
	}
	bad := analysis.Defaults()
	bad.M = 0
	if _, err := ExtAntennas(bad); err == nil {
		t.Fatal("accepted invalid params")
	}
}

func TestMeasureNuProfileValidation(t *testing.T) {
	p := testParams()
	if _, err := MeasureNuProfile(PointConfig{Params: p, Runs: 0}, 4); err == nil {
		t.Fatal("accepted zero runs")
	}
	if _, err := MeasureNuProfile(PointConfig{Params: p, Runs: 1}, 0); err == nil {
		t.Fatal("accepted maxNu=0")
	}
	bad := p
	bad.L = 0
	if _, err := MeasureNuProfile(PointConfig{Params: bad, Runs: 1}, 2); err == nil {
		t.Fatal("accepted invalid params")
	}
}

func TestMeasureNuProfileMonotoneAndConsistent(t *testing.T) {
	p := testParams()
	p.Q = 30
	profile, err := MeasureNuProfile(PointConfig{
		Params: p,
		Jammer: JamReactive,
		Runs:   3,
		Seed:   11,
	}, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "nu-profile", nuProfileFigure(profile))
	if len(profile.PM) != 6 || len(profile.PHat) != 6 {
		t.Fatalf("profile lengths %d/%d, want 6", len(profile.PM), len(profile.PHat))
	}
	if profile.PM[0] != 0 {
		t.Fatalf("P̂_M(ν=1) = %v, want 0 (no intermediate hop)", profile.PM[0])
	}
	for nu := 1; nu < 6; nu++ {
		if profile.PM[nu] < profile.PM[nu-1]-1e-12 {
			t.Fatalf("P̂_M not monotone at ν=%d", nu+1)
		}
		if profile.PHat[nu] < profile.PHat[nu-1]-1e-12 {
			t.Fatalf("P̂ not monotone at ν=%d", nu+1)
		}
	}
	for nu := 0; nu < 6; nu++ {
		if profile.PHat[nu] < profile.PD-1e-12 {
			t.Fatalf("P̂(ν=%d) = %v below P̂_D = %v", nu+1, profile.PHat[nu], profile.PD)
		}
		if profile.PHat[nu] > 1+1e-12 || profile.PM[nu] > 1+1e-12 {
			t.Fatalf("probability out of range at ν=%d", nu+1)
		}
	}
	// The ν=2 profile must agree with MeasurePoint at ν=2 on the same
	// seeds.
	p2 := p
	p2.Nu = 2
	point, err := MeasurePoint(PointConfig{Params: p2, Jammer: JamReactive, Runs: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(point.PM-profile.PM[1]) > 1e-9 {
		t.Fatalf("ν=2 profile (%v) disagrees with MeasurePoint (%v)", profile.PM[1], point.PM)
	}
	if math.Abs(point.PHat-profile.PHat[1]) > 1e-9 {
		t.Fatalf("ν=2 P̂ profile (%v) disagrees with MeasurePoint (%v)", profile.PHat[1], point.PHat)
	}
	if math.Abs(point.PD-profile.PD) > 1e-9 {
		t.Fatalf("P̂_D mismatch: %v vs %v", profile.PD, point.PD)
	}
}

func TestExtZTracksTheorem1UpperBound(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := SweepConfig{Base: testParams(), Runs: 3, Seed: 41}
	fig, err := ExtZ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sim, upper, floor []float64
	for _, s := range fig.Series {
		switch {
		case strings.Contains(s.Label, "sim"):
			sim = s.Y
		case strings.Contains(s.Label, "P̂+"):
			upper = s.Y
		case strings.Contains(s.Label, "P̂−"):
			floor = s.Y
		}
	}
	for i := range sim {
		// The simulation includes the x-sub-session redundancy, so it may
		// sit slightly above the theorem's pessimistic product bound, but
		// never below the reactive floor.
		if sim[i] < floor[i]-0.05 {
			t.Fatalf("point %d: sim %v below the reactive floor %v", i, sim[i], floor[i])
		}
		if sim[i] < upper[i]-0.08 {
			t.Fatalf("point %d: sim %v far below P̂+ %v", i, sim[i], upper[i])
		}
	}
	// P̂+ must decline with z while the floor stays flat.
	if upper[len(upper)-1] >= upper[0] {
		t.Fatal("P̂+ did not decline with z")
	}
	if floor[0] != floor[len(floor)-1] {
		t.Fatal("reactive floor moved with z")
	}
}

func TestInterferenceValidationShape(t *testing.T) {
	fig, err := InterferenceValidation(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ext-noise", fig)
	s := fig.Series[0]
	// Perfect decode at the paper's operating density, breakdown at the
	// extreme end.
	if s.Y[0] != 1 {
		t.Fatalf("decode rate %v with no interferers", s.Y[0])
	}
	for i, k := range s.X {
		if k <= 64 && s.Y[i] < 0.9 {
			t.Fatalf("decode rate %v at %v interferers; §IV-A assumption violated", s.Y[i], k)
		}
	}
	if last := s.Y[len(s.Y)-1]; last > 0.1 {
		t.Fatalf("decode rate %v at %v interferers; expected breakdown", last, s.X[len(s.X)-1])
	}
	if _, err := InterferenceValidation(1, 0); err == nil {
		t.Fatal("accepted zero trials")
	}
}

func TestPredistributionComparison(t *testing.T) {
	p := testParams()
	fig, err := PredistributionComparison(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, s := range fig.Series {
		vals[s.Label] = s.Y[0]
	}
	if vals["structured: max holders per code"] != float64(p.L) {
		t.Fatalf("structured cap %v, want exactly l=%d", vals["structured: max holders per code"], p.L)
	}
	if vals["uniform:    max holders per code"] <= vals["structured: max holders per code"] {
		t.Fatal("uniform scheme did not show a holder tail above the cap")
	}
	if vals["uniform:    worst DoS exposure/code"] <= vals["structured: worst DoS exposure/code"] {
		t.Fatal("uniform DoS exposure not worse than structured")
	}
	s, u := vals["structured: Pr[share >= 1 code]"], vals["uniform:    Pr[share >= 1 code]"]
	if math.Abs(s-u) > 0.1 {
		t.Fatalf("sharing probabilities diverge: %v vs %v", s, u)
	}
	bad := p
	bad.M = 0
	if _, err := PredistributionComparison(bad, 1); err == nil {
		t.Fatal("accepted invalid params")
	}
}

func TestExtAdaptiveNu(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := SweepConfig{Base: testParams(), Runs: 2, Seed: 13, Jammer: JamReactive}
	// testParams has n=400; q=100 stresses it hard but stays valid.
	fig, err := ExtAdaptiveNu(cfg, []float64{0.3, 0.6, 0.9}, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ext-adaptive-nu", fig)
	if fig.ID != "ext-adaptive-nu" || len(fig.Series) != 3 {
		t.Fatal("malformed figure")
	}
	chosen := fig.Series[0].Y
	for i := 1; i < len(chosen); i++ {
		if chosen[i] < chosen[i-1] {
			t.Fatalf("chosen ν not monotone in target: %v", chosen)
		}
	}
	measured := fig.Series[2].Y
	for i, v := range measured {
		if v < 0 || v > 1 {
			t.Fatalf("measured[%d] = %v out of range", i, v)
		}
	}
}
