package experiment

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
)

// Series is one plotted curve: Y[i] measured at X[i].
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// scalar is a one-value series, a row of a parameter-style table.
func scalar(label string, v float64) Series {
	return Series{Label: label, X: []float64{0}, Y: []float64{v}}
}

// Figure is the reproduction of one paper figure (or table): a set of
// series plus free-form notes recording the paper's qualitative claims.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// SweepConfig configures a figure reproduction run.
type SweepConfig struct {
	// Base is the parameter set to sweep from; zero value means Table I
	// defaults.
	Base analysis.Params
	// Runs per point (paper: 100).
	Runs int
	// Seed for reproducibility.
	Seed int64
	// Jammer model; the zero value is reactive jamming, the worst case
	// the paper's figures report.
	Jammer core.JammerKind
	// IterateMNDP closes the logical graph under repeated M-NDP rounds.
	IterateMNDP bool
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Base.N == 0 {
		c.Base = analysis.Defaults()
	}
	if c.Runs == 0 {
		c.Runs = 100
	}
	return c
}

// sweep measures a list of parameter points and assembles the standard
// five series (P̂ for D-NDP/M-NDP/JR-SND plus theory bounds) against xs.
func sweep(cfg SweepConfig, xs []float64, mutate func(p *analysis.Params, x float64)) ([]PointMeasure, []analysis.Params, error) {
	measures := make([]PointMeasure, len(xs))
	params := make([]analysis.Params, len(xs))
	for i, x := range xs {
		p := cfg.Base
		mutate(&p, x)
		params[i] = p
		m, err := MeasurePoint(PointConfig{
			Params:      p,
			Jammer:      cfg.Jammer,
			Runs:        cfg.Runs,
			Seed:        cfg.Seed + int64(i)*104729,
			IterateMNDP: cfg.IterateMNDP,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("experiment: point x=%v: %w", x, err)
		}
		measures[i] = m
	}
	return measures, params, nil
}

func probabilitySeries(xs []float64, ms []PointMeasure, ps []analysis.Params) []Series {
	n := len(xs)
	sd := Series{Label: "D-NDP (sim)", X: xs, Y: make([]float64, n)}
	sm := Series{Label: "M-NDP (sim)", X: xs, Y: make([]float64, n)}
	sj := Series{Label: "JR-SND (sim)", X: xs, Y: make([]float64, n)}
	td := Series{Label: "D-NDP (Theorem 1, reactive)", X: xs, Y: make([]float64, n)}
	tm := Series{Label: "M-NDP (Theorem 3 bound)", X: xs, Y: make([]float64, n)}
	for i := range xs {
		sd.Y[i] = ms[i].PD
		sm.Y[i] = ms[i].PM
		sj.Y[i] = ms[i].PHat
		pd := analysis.DNDPReactive(ps[i])
		td.Y[i] = pd
		tm.Y[i] = analysis.MNDPLowerBound(pd, ms[i].AvgDegree)
	}
	return []Series{sd, sm, sj, td, tm}
}

// Fig2a reproduces Fig. 2(a): impact of m on P̂.
func Fig2a(cfg SweepConfig) (Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{20, 40, 60, 80, 100, 120, 140, 160, 180, 200}
	ms, ps, err := sweep(cfg, xs, func(p *analysis.Params, x float64) { p.M = int(x) })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig2a",
		Title:  "Fig. 2(a) — impact of m on neighbor-discovery probability",
		XLabel: "m (spread codes per node)",
		YLabel: "P̂",
		Series: probabilitySeries(xs, ms, ps),
		Notes: []string{
			"paper: larger m raises P̂ for D-NDP, M-NDP and JR-SND",
			"paper: JR-SND ≈ 1 at the default m = 100",
		},
	}, nil
}

// Fig2b reproduces Fig. 2(b): impact of m on T̄.
func Fig2b(cfg SweepConfig) (Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{20, 40, 60, 80, 100, 120, 140, 160, 180, 200}
	ms, ps, err := sweep(cfg, xs, func(p *analysis.Params, x float64) { p.M = int(x) })
	if err != nil {
		return Figure{}, err
	}
	n := len(xs)
	sd := Series{Label: "D-NDP T̄ (sim)", X: xs, Y: make([]float64, n)}
	sm := Series{Label: "M-NDP T̄ (Theorem 4)", X: xs, Y: make([]float64, n)}
	sj := Series{Label: "JR-SND T̄ = max", X: xs, Y: make([]float64, n)}
	th := Series{Label: "D-NDP T̄ (Theorem 2)", X: xs, Y: make([]float64, n)}
	for i := range xs {
		sd.Y[i] = ms[i].TD
		sm.Y[i] = ms[i].TM
		sj.Y[i] = ms[i].TBar
		th.Y[i] = analysis.DNDPLatency(ps[i])
	}
	return Figure{
		ID:     "fig2b",
		Title:  "Fig. 2(b) — impact of m on average discovery latency",
		XLabel: "m (spread codes per node)",
		YLabel: "T̄ (s)",
		Series: []Series{sd, sm, sj, th},
		Notes: []string{
			"paper: T̄_D grows quadratically in m and crosses T̄_M near m = 60",
			"paper: JR-SND latency under 2 s at the default m = 100",
		},
	}, nil
}

// Fig3a reproduces Fig. 3(a): P̂ vs l.
func Fig3a(cfg SweepConfig) (Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{5, 10, 20, 40, 60, 80, 100, 120, 140, 160}
	ms, ps, err := sweep(cfg, xs, func(p *analysis.Params, x float64) { p.L = int(x) })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig3a",
		Title:  "Fig. 3(a) — impact of l on neighbor-discovery probability",
		XLabel: "l (nodes sharing each code)",
		YLabel: "P̂",
		Series: probabilitySeries(xs, ms, ps),
		Notes: []string{
			"paper: P̂ increases with l up to ≈ 100, then slowly decreases",
			"mechanism: larger l raises sharing probability but also the chance a code is compromised",
		},
	}, nil
}

// Fig3b reproduces Fig. 3(b): P̂ vs n.
func Fig3b(cfg SweepConfig) (Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{500, 1000, 1500, 2000, 2500, 3000, 3500, 4000}
	ms, ps, err := sweep(cfg, xs, func(p *analysis.Params, x float64) { p.N = int(x) })
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "fig3b",
		Title:  "Fig. 3(b) — impact of n on neighbor-discovery probability",
		XLabel: "n (number of nodes)",
		YLabel: "P̂",
		Series: probabilitySeries(xs, ms, ps),
		Notes: []string{
			"paper: D-NDP first rises (α falls) then declines (sharing probability falls)",
			"paper: M-NDP keeps improving with density; JR-SND stays high throughout",
		},
	}, nil
}

// Fig4 reproduces Fig. 4: impact of q at a given l (4(a): l=40, 4(b): l=20).
func Fig4(cfg SweepConfig, l int) (Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	ms, ps, err := sweep(cfg, xs, func(p *analysis.Params, x float64) {
		p.L = l
		p.Q = int(x)
	})
	if err != nil {
		return Figure{}, err
	}
	id, sub := "fig4a", "(a)"
	if l != 40 {
		id, sub = "fig4b", "(b)"
	}
	return Figure{
		ID:     id,
		Title:  fmt.Sprintf("Fig. 4%s — impact of q (compromised nodes) at l = %d", sub, l),
		XLabel: "q (compromised nodes)",
		YLabel: "P̂",
		Series: probabilitySeries(xs, ms, ps),
		Notes: []string{
			"paper: P̂ of D-NDP, M-NDP and JR-SND all decrease with q",
			"paper (l=40): JR-SND ≈ 0.5 at q = 60",
		},
	}, nil
}

// Fig5a reproduces Fig. 5(a): impact of ν on P̂_M with P̂_D ≈ 0.2 (q=100).
// All hop bounds come from one hop search per edge at ν = 8
// (MeasureNuProfile reads the per-ν counts of MeasurePoint's run), so the
// ν profile is single-round M-NDP whatever cfg.IterateMNDP says. The
// theory overlay uses the iterated Theorem-3 recurrence for ν > 2.
func Fig5a(cfg SweepConfig) (Figure, error) {
	cfg = cfg.withDefaults()
	const maxNu = 8
	p := cfg.Base
	p.Q = 100 // the paper's P̂_D = 0.2 operating point
	profile, err := MeasureNuProfile(PointConfig{
		Params: p,
		Jammer: cfg.Jammer,
		Runs:   cfg.Runs,
		Seed:   cfg.Seed,
	}, maxNu)
	if err != nil {
		return Figure{}, err
	}
	xs := make([]float64, maxNu)
	sd := Series{Label: "D-NDP (sim)", X: xs, Y: make([]float64, maxNu)}
	sm := Series{Label: "M-NDP (sim)", X: xs, Y: make([]float64, maxNu)}
	sj := Series{Label: "JR-SND (sim)", X: xs, Y: make([]float64, maxNu)}
	tm := Series{Label: "M-NDP (recurrence; optimistic for ν>2)", X: xs, Y: make([]float64, maxNu)}
	pdTheory := analysis.DNDPReactive(p)
	g := p.AvgDegree()
	for i := 0; i < maxNu; i++ {
		xs[i] = float64(i + 1)
		sd.Y[i] = profile.PD
		sm.Y[i] = profile.PM[i]
		sj.Y[i] = profile.PHat[i]
		tm.Y[i] = analysis.MNDPBoundNu(pdTheory, g, i+1)
	}
	return Figure{
		ID:     "fig5a",
		Title:  "Fig. 5(a) — impact of ν on P̂ at P̂_D ≈ 0.2 (q = 100)",
		XLabel: "ν (M-NDP hop bound)",
		YLabel: "P̂",
		Series: []Series{sd, sm, sj, tm},
		Notes: []string{
			"paper: P̂_D is flat (ν does not affect D-NDP)",
			"paper: P̂_M and P̂ exceed 0.9 for ν >= 6",
		},
	}, nil
}

// Fig5b reproduces Fig. 5(b): T̄ vs ν.
func Fig5b(cfg SweepConfig) (Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ms, _, err := sweep(cfg, xs, func(p *analysis.Params, x float64) {
		p.Q = 100
		p.Nu = int(x)
	})
	if err != nil {
		return Figure{}, err
	}
	n := len(xs)
	sm := Series{Label: "M-NDP T̄ (Theorem 4, measured g)", X: xs, Y: make([]float64, n)}
	sj := Series{Label: "JR-SND T̄ = max", X: xs, Y: make([]float64, n)}
	sd := Series{Label: "D-NDP T̄ (sim)", X: xs, Y: make([]float64, n)}
	for i := range xs {
		sm.Y[i] = ms[i].TM
		sj.Y[i] = ms[i].TBar
		sd.Y[i] = ms[i].TD
	}
	return Figure{
		ID:     "fig5b",
		Title:  "Fig. 5(b) — impact of ν on average discovery latency",
		XLabel: "ν (M-NDP hop bound)",
		YLabel: "T̄ (s)",
		Series: []Series{sd, sm, sj},
		Notes: []string{
			"paper: T̄_M increases with ν; about 4 s at ν = 6",
		},
	}, nil
}

// Table1 reproduces Table I plus the derived quantities of §V-B.
func Table1() Figure {
	p := analysis.Defaults()
	return Figure{
		ID:    "table1",
		Title: "Table I — default evaluation parameters and derived quantities",
		Series: []Series{
			scalar("n", float64(p.N)), scalar("m", float64(p.M)), scalar("l", float64(p.L)),
			scalar("q", float64(p.Q)), scalar("N (chips)", float64(p.ChipLen)), scalar("R (b/s)", p.ChipRate),
			scalar("rho (s/bit)", p.Rho), scalar("mu", p.Mu), scalar("nu", float64(p.Nu)),
			scalar("l_t", float64(p.LenType)), scalar("l_id", float64(p.LenID)), scalar("l_n", float64(p.LenNonce)),
			scalar("l_f=l_mac", float64(p.LenMAC)), scalar("l_nu", float64(p.LenNu)), scalar("l_sig", float64(p.LenSig)),
			scalar("t_key (s)", p.TKey), scalar("t_sig (s)", p.TSig), scalar("t_ver (s)", p.TVer),
			scalar("s = w*m", float64(p.S())),
			scalar("l_h (bits)", p.HelloBits()),
			scalar("l_f coded (bits)", p.AuthBits()),
			scalar("t_h (s)", p.THello()),
			scalar("t_b (s)", p.TBuffer()),
			scalar("lambda", p.Lambda()),
			scalar("t_p (s)", p.TProcess()),
			scalar("r (hello rounds)", float64(p.HelloRounds())),
			scalar("g (avg degree)", p.AvgDegree()),
		},
		Notes: []string{"derived quantities computed per §V-B"},
	}
}
