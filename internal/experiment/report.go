package experiment

import (
	"fmt"
	"io"
)

// Report bundles a full reproduction pass: every figure plus automated
// verdicts on the paper's qualitative claims, so a reader can tell at a
// glance whether the reproduction still holds after a change.
type Report struct {
	Config  SweepConfig
	Figures []Figure
	Checks  []ClaimCheck
}

// ClaimCheck is one automated verdict on a paper claim.
type ClaimCheck struct {
	Artifact string
	Claim    string
	Pass     bool
	Detail   string
}

// reportIDs are the registry experiments a report runs, in report order.
var reportIDs = []string{"table1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "fig5a", "fig5b", "dsss", "dos"}

// BuildReport runs the full evaluation (all paper figures plus the
// validation experiments) and checks the paper's qualitative claims
// against the measurements.
func BuildReport(cfg SweepConfig) (Report, error) {
	cfg = cfg.withDefaults()
	r := Report{Config: cfg}

	check := func(artifact, claim string, pass bool, format string, args ...any) {
		r.Checks = append(r.Checks, ClaimCheck{
			Artifact: artifact,
			Claim:    claim,
			Pass:     pass,
			Detail:   fmt.Sprintf(format, args...),
		})
	}
	series := func(fig Figure, label string) []float64 {
		for _, s := range fig.Series {
			if s.Label == label {
				return s.Y
			}
		}
		return nil
	}

	figs := make(map[string]Figure, len(reportIDs))
	for _, id := range reportIDs {
		e, err := Lookup(id)
		if err != nil {
			return Report{}, err
		}
		fig, err := e.Run(cfg)
		if err != nil {
			return Report{}, err
		}
		r.Figures = append(r.Figures, fig)
		figs[id] = fig
	}

	// Fig. 2(a): P̂ rises with m; JR-SND ≈ 1 at m = 100.
	fig2a := figs["fig2a"]
	jr := series(fig2a, "JR-SND (sim)")
	at100 := valueAt(fig2a.Series[0].X, jr, 100)
	check("fig2a", "JR-SND ≈ 1 at m=100", at100 >= 0.99, "measured %.4f", at100)
	check("fig2a", "D-NDP increases with m", nonDecreasing(series(fig2a, "D-NDP (sim)"), 0.02),
		"first %.3f last %.3f", series(fig2a, "D-NDP (sim)")[0], last(series(fig2a, "D-NDP (sim)")))

	// Fig. 2(b): T̄_D quadratic, crossover near m=60, < 2 s at m=100.
	fig2b := figs["fig2b"]
	td := series(fig2b, "D-NDP T̄ (sim)")
	tm := series(fig2b, "M-NDP T̄ (Theorem 4)")
	crossover := -1.0
	for i := range td {
		if td[i] > tm[i] {
			crossover = fig2b.Series[0].X[i]
			break
		}
	}
	check("fig2b", "T̄_D crosses T̄_M for m just above 60", crossover > 60 && crossover <= 100,
		"crossover at m=%v", crossover)
	tAt100 := valueAt(fig2b.Series[0].X, series(fig2b, "JR-SND T̄ = max"), 100)
	check("fig2b", "JR-SND latency < 2 s at m=100", tAt100 < 2, "measured %.3f s", tAt100)

	// Fig. 3(a): peak near l = 100, then slow decline.
	fig3a := figs["fig3a"]
	dnd3a := series(fig3a, "D-NDP (sim)")
	peakL := fig3a.Series[0].X[argmax(dnd3a)]
	check("fig3a", "P̂ peaks near l ≈ 100 then declines", peakL >= 60 && peakL <= 140 && last(dnd3a) < maxOf(dnd3a),
		"peak at l=%v (%.3f), endpoint %.3f", peakL, maxOf(dnd3a), last(dnd3a))

	// Fig. 3(b): D-NDP rises then falls; JR-SND stays high.
	fig3b := figs["fig3b"]
	dnd3b := series(fig3b, "D-NDP (sim)")
	iPeak := argmax(dnd3b)
	check("fig3b", "D-NDP rises then declines in n", iPeak > 0 && iPeak < len(dnd3b)-1,
		"peak at n=%v", fig3b.Series[0].X[iPeak])
	check("fig3b", "JR-SND stays high across n", minOf(series(fig3b, "JR-SND (sim)")) > 0.9,
		"min %.3f", minOf(series(fig3b, "JR-SND (sim)")))

	// Fig. 4(a)/(b): monotone decline in q; P̂_D(q=100) ≈ 0.2 at l=40;
	// l=20 declines more gently at large q.
	fig4a, fig4b := figs["fig4a"], figs["fig4b"]
	pd4a := series(fig4a, "D-NDP (sim)")
	check("fig4a", "all curves decline with q", nonIncreasing(pd4a, 0.02) &&
		nonIncreasing(series(fig4a, "JR-SND (sim)"), 0.02), "D-NDP %.3f→%.3f", pd4a[0], last(pd4a))
	pdAt100 := valueAt(fig4a.Series[0].X, pd4a, 100)
	check("fig4a", "P̂_D ≈ 0.2 at q=100 (the Fig. 5(a) anchor)", pdAt100 > 0.15 && pdAt100 < 0.3,
		"measured %.3f", pdAt100)
	jr4aEnd := valueAt(fig4a.Series[0].X, series(fig4a, "JR-SND (sim)"), 100)
	jr4bEnd := valueAt(fig4b.Series[0].X, series(fig4b, "JR-SND (sim)"), 100)
	check("fig4b", "l=20 degrades more slowly than l=40 at q=100", jr4bEnd > jr4aEnd,
		"l=20: %.3f vs l=40: %.3f", jr4bEnd, jr4aEnd)

	// Fig. 5(a): P̂_D flat in ν; P̂ > 0.9 for ν >= 6.
	fig5a := figs["fig5a"]
	pd5a := series(fig5a, "D-NDP (sim)")
	check("fig5a", "P̂_D flat in ν", maxOf(pd5a)-minOf(pd5a) < 0.05, "spread %.4f", maxOf(pd5a)-minOf(pd5a))
	p5aAt6 := valueAt(fig5a.Series[0].X, series(fig5a, "JR-SND (sim)"), 6)
	check("fig5a", "P̂ > 0.9 for ν >= 6", p5aAt6 > 0.9, "P̂(ν=6) = %.3f", p5aAt6)

	// Fig. 5(b): T̄_M increasing, a few seconds at ν=6.
	fig5b := figs["fig5b"]
	tm5b := series(fig5b, "M-NDP T̄ (Theorem 4, measured g)")
	check("fig5b", "T̄_M increases with ν, seconds-scale at ν=6",
		nonDecreasing(tm5b, 0) && valueAt(fig5b.Series[0].X, tm5b, 6) > 2 && valueAt(fig5b.Series[0].X, tm5b, 6) < 10,
		"T̄_M(6) = %.2f s", valueAt(fig5b.Series[0].X, tm5b, 6))

	// Chip-level ECC threshold.
	dsssFig := figs["dsss"]
	dsssY := dsssFig.Series[0].Y
	dsssX := dsssFig.Series[0].X
	sharp := true
	for i := range dsssX {
		if dsssX[i] <= 0.45 && dsssY[i] < 0.99 {
			sharp = false
		}
		if dsssX[i] >= 0.55 && dsssY[i] > 0.01 {
			sharp = false
		}
	}
	check("dsss", "ECC threshold sharp at μ/(1+μ) = 0.5", sharp, "curve %v", dsssY)

	// DoS bound.
	dosFig := figs["dos"]
	var noRev, withRev float64
	for _, s := range dosFig.Series {
		switch s.Label {
		case "verifications, no revocation":
			noRev = s.Y[0]
		case "verifications, gamma=5":
			withRev = s.Y[0]
		}
	}
	check("dos", "revocation bounds the DoS verification load", withRev < noRev,
		"%v → %v verifications", noRev, withRev)

	return r, nil
}

// WriteMarkdown renders the report.
func WriteMarkdown(w io.Writer, r Report) error {
	fmt.Fprintf(w, "# JR-SND reproduction report\n\n")
	fmt.Fprintf(w, "Configuration: n=%d, %d runs per point, seed %d, %s jamming.\n\n",
		r.Config.Base.N, r.Config.Runs, r.Config.Seed, r.Config.Jammer)

	passed := 0
	for _, c := range r.Checks {
		if c.Pass {
			passed++
		}
	}
	fmt.Fprintf(w, "## Claim checks — %d/%d passed\n\n", passed, len(r.Checks))
	fmt.Fprintf(w, "| Artifact | Claim | Verdict | Measured |\n|---|---|---|---|\n")
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", c.Artifact, c.Claim, verdict, c.Detail)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "## Measured series\n\n")
	for _, fig := range r.Figures {
		fmt.Fprintf(w, "### %s\n\n```\n", fig.Title)
		if err := Print(w, fig); err != nil {
			return err
		}
		fmt.Fprintf(w, "```\n\n")
	}
	return nil
}

func valueAt(xs, ys []float64, x float64) float64 {
	for i := range xs {
		if xs[i] == x {
			return ys[i]
		}
	}
	return -1
}

func last(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	return ys[len(ys)-1]
}

func argmax(ys []float64) int {
	best := 0
	for i, v := range ys {
		if v > ys[best] {
			best = i
		}
	}
	return best
}

func maxOf(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	return ys[argmax(ys)]
}

func minOf(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	m := ys[0]
	for _, v := range ys {
		if v < m {
			m = v
		}
	}
	return m
}

func nonDecreasing(ys []float64, slack float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1]-slack {
			return false
		}
	}
	return true
}

func nonIncreasing(ys []float64, slack float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1]+slack {
			return false
		}
	}
	return true
}
