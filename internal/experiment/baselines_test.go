package experiment

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

func TestBaselineQ(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := SweepConfig{Base: testParams(), Runs: 2, Seed: 21, Jammer: core.JamReactive}
	fig, err := BaselineQ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range fig.Series {
		series[s.Label] = s.Y
	}
	common := series["common secret code"]
	if common[0] != 1 {
		t.Fatal("common code must be perfect at q=0")
	}
	for i := 1; i < len(common); i++ {
		if common[i] != 0 {
			t.Fatal("common code must be dead for q >= 1")
		}
	}
	for _, v := range series["pairwise secret codes"] {
		if v != 0 {
			t.Fatal("pairwise codes must be unable to bootstrap under jamming")
		}
	}
	jr := series["JR-SND (sim)"]
	// JR-SND strictly dominates the common-code scheme at q >= 1.
	for i := 1; i < len(jr); i++ {
		if jr[i] <= 0 {
			t.Fatalf("JR-SND collapsed at point %d", i)
		}
	}
}

func TestBaselineLatency(t *testing.T) {
	fig, err := BaselineLatency(analysis.Params{}, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	var dndp, ufhA, ufhS []float64
	for _, s := range fig.Series {
		switch s.Label {
		case "JR-SND D-NDP T̄ (Theorem 2)":
			dndp = s.Y
		case "UFH expected (analytic)":
			ufhA = s.Y
		case "UFH mean (simulated)":
			ufhS = s.Y
		}
	}
	for i := range dndp {
		if ufhA[i] <= dndp[i] {
			t.Fatalf("point %d: UFH (%v) not slower than D-NDP (%v)", i, ufhA[i], dndp[i])
		}
		if math.Abs(ufhS[i]-ufhA[i]) > 0.35*ufhA[i] {
			t.Fatalf("point %d: simulated UFH %v far from analytic %v", i, ufhS[i], ufhA[i])
		}
	}
	// UFH latency grows with jamming.
	for i := 1; i < len(ufhA); i++ {
		if ufhA[i] < ufhA[i-1] {
			t.Fatal("UFH latency not monotone in z")
		}
	}
	if _, err := BaselineLatency(analysis.Params{}, 1, 0); err == nil {
		t.Fatal("accepted zero samples")
	}
}

func TestBaselineDoS(t *testing.T) {
	fig, err := BaselineDoS(analysis.Params{})
	if err != nil {
		t.Fatal(err)
	}
	p := analysis.Defaults()
	cap := float64(p.L-1) * float64(p.Gamma+1) * float64(p.M)
	var jr, pub []float64
	for _, s := range fig.Series {
		if s.Label[:6] == "JR-SND" {
			jr = s.Y
		} else {
			pub = s.Y
		}
	}
	for i := range jr {
		if jr[i] > cap {
			t.Fatalf("JR-SND verification load %v exceeds its cap %v", jr[i], cap)
		}
		if pub[i] < jr[i] {
			t.Fatalf("public scheme (%v) cheaper than JR-SND (%v)?", pub[i], jr[i])
		}
	}
	// The public scheme's load must keep growing; JR-SND saturates.
	last := len(jr) - 1
	if jr[last] != cap {
		t.Fatalf("JR-SND did not saturate at its cap: %v", jr[last])
	}
	if pub[last] <= pub[last-1] {
		t.Fatal("public scheme load must grow with injections")
	}
	bad := analysis.Defaults()
	bad.M = 0
	if _, err := BaselineDoS(bad); err == nil {
		t.Fatal("accepted invalid params")
	}
}
