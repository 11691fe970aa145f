package experiment

import (
	"math"
	"testing"

	"repro/internal/analysis"
)

func TestCrossCheckEnginesAgree(t *testing.T) {
	// The repository's central consistency claim: the pair-level campaign,
	// the full event-driven protocol engine, and Theorem 1 all measure the
	// same quantity. A small seeded sweep over (m, l, q) at n = 200 and
	// Table I density keeps the campaign from drifting off the protocol in
	// any one corner. CrossCheck compares D-NDP only, so ν does not enter.
	for _, c := range []struct {
		m, l, q int
		seed    int64
	}{
		{m: 30, l: 20, q: 5, seed: 17},
		{m: 20, l: 10, q: 10, seed: 5},
		{m: 20, l: 20, q: 2, seed: 7},
		{m: 50, l: 20, q: 5, seed: 13},
	} {
		p := analysis.Defaults()
		p.N = 200
		p.M, p.L, p.Q = c.m, c.l, c.q
		p.FieldWidth, p.FieldHeight = 1580, 1580
		res, err := CrossCheck(p, 4, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.CampaignPD-res.TheoryPD) > 0.05 {
			t.Errorf("m=%d l=%d q=%d: campaign %v vs theory %v", c.m, c.l, c.q, res.CampaignPD, res.TheoryPD)
		}
		if math.Abs(res.EventPD-res.TheoryPD) > 0.05 {
			t.Errorf("m=%d l=%d q=%d: event engine %v vs theory %v", c.m, c.l, c.q, res.EventPD, res.TheoryPD)
		}
		if math.Abs(res.EventPD-res.CampaignPD) > 0.05 {
			t.Errorf("m=%d l=%d q=%d: event engine %v vs campaign %v", c.m, c.l, c.q, res.EventPD, res.CampaignPD)
		}
	}
}

func TestCrossCheckValidation(t *testing.T) {
	p := analysis.Defaults()
	if _, err := CrossCheck(p, 0, 1); err == nil {
		t.Fatal("accepted zero runs")
	}
	bad := p
	bad.M = 0
	if _, err := CrossCheck(bad, 1, 1); err == nil {
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
