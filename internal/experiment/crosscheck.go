package experiment

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/stats"
)

// Cross-fidelity check: the repository measures discovery probability with
// two independent engines — the pair-level Monte-Carlo campaign (this
// package) and the full event-driven protocol engine (internal/core),
// which actually exchanges the four D-NDP messages over the simulated
// medium. Both must agree with each other and with Theorem 1.
// CrossCheckFigure runs both on the same parameter point and reports all
// three numbers.

// enginesPD measures P̂_D under the given jammer with both engines: the
// campaign over runs seeded runs, and the mean of as many event-engine
// deployments.
func enginesPD(p analysis.Params, jam core.JammerKind, runs int, seed int64) (campaign, event float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, fmt.Errorf("experiment: %w", err)
	}
	if runs < 1 {
		return 0, 0, fmt.Errorf("experiment: runs=%d must be >= 1", runs)
	}
	m, err := MeasurePoint(PointConfig{
		Params: p,
		Jammer: jam,
		Runs:   runs,
		Seed:   seed,
	})
	if err != nil {
		return 0, 0, err
	}
	var ev stats.Sample
	for run := 0; run < runs; run++ {
		pd, err := eventEnginePD(p, jam, seed+int64(run)*104729)
		if err != nil {
			return 0, 0, err
		}
		ev.Add(pd)
	}
	return m.PD, ev.Mean(), nil
}

// eventEnginePD runs one full protocol-engine deployment under the given
// jammer and returns the fraction of honest physical links secured by
// D-NDP.
func eventEnginePD(p analysis.Params, jam core.JammerKind, seed int64) (float64, error) {
	net, err := core.NewNetwork(core.NetworkConfig{
		Params: p,
		Seed:   seed,
		Jammer: jam,
	})
	if err != nil {
		return 0, err
	}
	if _, err := net.CompromiseRandom(p.Q); err != nil {
		return 0, err
	}
	if err := net.RunDNDP(1); err != nil {
		return 0, err
	}
	secured, total := net.SecuredHonestLinks()
	if total == 0 {
		return 0, fmt.Errorf("experiment: event-engine deployment has no honest edges")
	}
	return float64(secured) / float64(total), nil
}

// CrossCheckFigure measures P̂_D three ways at the given parameters under
// reactive jamming and prints them as a figure (experiment id
// ext-crosscheck). The event engine is O(n·m) messages per run, so keep n
// modest (a few hundred).
func CrossCheckFigure(p analysis.Params, runs int, seed int64) (Figure, error) {
	if p.N == 0 {
		p = analysis.Defaults()
		// The event engine exchanges every protocol message; scale the
		// deployment down while keeping the density and code-compromise
		// geometry of Table I.
		p.N = 250
		p.L = 20
		p.Q = 5
		p.M = 40
		p.FieldWidth, p.FieldHeight = 1770, 1770
	}
	campaign, event, err := enginesPD(p, core.JamReactive, runs, seed)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:    "ext-crosscheck",
		Title: "Cross-fidelity check — P̂_D from three independent engines",
		Series: []Series{
			scalar("campaign Monte Carlo", campaign),
			scalar("event-driven protocol engine", event),
			scalar("Theorem 1 (reactive)", analysis.DNDPReactive(p)),
		},
		Notes: []string{
			"the campaign models jam outcomes per Theorem 1; the event engine exchanges every message",
			"all three must agree within Monte-Carlo error",
		},
	}, nil
}
