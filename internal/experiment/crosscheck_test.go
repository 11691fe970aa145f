package experiment

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

func TestCrossCheckEnginesAgree(t *testing.T) {
	// The repository's central consistency claim: the pair-level campaign,
	// the full event-driven protocol engine, and Theorem 1 all measure the
	// same quantity. A small seeded sweep over (m, l, q) at n = 200 and
	// Table I density keeps the campaign from drifting off the protocol in
	// any one corner. The check compares D-NDP only, so ν does not enter.
	// Both engines build their jammer with core.NewJammer, so any
	// disagreement is protocol logic, not two adversary models.
	//
	// lo and hi bound each engine's P̂_D minus Theorem 1's value for the
	// row's jammer (P̂− reactive, P̂+ random). Two kinds of row have
	// measured, one-sided bounds (EXPERIMENTS.md, "Cross-fidelity check"):
	//   - heavy reactive compromise (q = 15, 20): P̂− sits below both
	//     engines, by 0.076–0.107 on these seeds;
	//   - random jamming: both engines sit above P̂+, by 0.012–0.039 on
	//     these seeds, and the event engine above the campaign, by
	//     0.007–0.027, because every node initiates D-NDP, so each pair
	//     gets two executions with fresh jam draws where the campaign and
	//     Theorem 1 model one.
	for _, c := range []struct {
		jam     core.JammerKind
		m, l, q int
		seed    int64
		lo, hi  float64
	}{
		{jam: core.JamReactive, m: 30, l: 20, q: 5, seed: 17, lo: -0.05, hi: 0.05},
		{jam: core.JamReactive, m: 20, l: 10, q: 10, seed: 5, lo: -0.05, hi: 0.05},
		{jam: core.JamReactive, m: 20, l: 20, q: 2, seed: 7, lo: -0.05, hi: 0.05},
		{jam: core.JamReactive, m: 50, l: 20, q: 5, seed: 13, lo: -0.05, hi: 0.05},
		{jam: core.JamReactive, m: 50, l: 20, q: 15, seed: 13, lo: 0, hi: 0.12},
		{jam: core.JamReactive, m: 50, l: 20, q: 20, seed: 13, lo: 0, hi: 0.12},
		{jam: core.JamRandom, m: 20, l: 10, q: 5, seed: 7, lo: 0, hi: 0.05},
		{jam: core.JamRandom, m: 20, l: 10, q: 10, seed: 5, lo: 0, hi: 0.05},
	} {
		p := analysis.Defaults()
		p.N = 200
		p.M, p.L, p.Q = c.m, c.l, c.q
		p.FieldWidth, p.FieldHeight = 1580, 1580
		campaign, event, err := enginesPD(p, c.jam, 4, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		theory, upper := analysis.DNDPBounds(p)
		if c.jam == core.JamRandom {
			theory = upper
			if event < campaign {
				t.Errorf("%v m=%d l=%d q=%d: event engine %v below campaign %v despite two executions per pair", c.jam, c.m, c.l, c.q, event, campaign)
			}
		}
		for _, e := range []struct {
			name string
			pd   float64
		}{{"campaign", campaign}, {"event engine", event}} {
			if d := e.pd - theory; d < c.lo || d > c.hi {
				t.Errorf("%v m=%d l=%d q=%d: %s %v minus theory %v = %v outside [%v, %v]", c.jam, c.m, c.l, c.q, e.name, e.pd, theory, d, c.lo, c.hi)
			}
		}
		if math.Abs(event-campaign) > 0.05 {
			t.Errorf("%v m=%d l=%d q=%d: event engine %v vs campaign %v", c.jam, c.m, c.l, c.q, event, campaign)
		}
	}
}

func TestCrossCheckValidation(t *testing.T) {
	p := analysis.Defaults()
	if _, err := CrossCheckFigure(p, 0, 1); err == nil {
		t.Fatal("accepted zero runs")
	}
	bad := p
	bad.M = 0
	if _, err := CrossCheckFigure(bad, 1, 1); err == nil {
		t.Fatal("accepted invalid params")
	}
}

func TestCrossCheckFigureDefaults(t *testing.T) {
	fig, err := CrossCheckFigure(analysis.Params{}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "ext-crosscheck" || len(fig.Series) != 3 {
		t.Fatal("malformed figure")
	}
	for _, s := range fig.Series {
		if s.Y[0] < 0 || s.Y[0] > 1 {
			t.Fatalf("%s = %v out of range", s.Label, s.Y[0])
		}
	}
}
