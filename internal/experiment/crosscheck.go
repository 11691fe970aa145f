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
// medium. Both must agree with each other and with Theorem 1. CrossCheck
// runs both on the same parameter point and reports all three numbers.

// CrossCheckResult carries the three independent measurements.
type CrossCheckResult struct {
	CampaignPD float64 // pair-level Monte Carlo
	EventPD    float64 // event-driven protocol engine
	TheoryPD   float64 // Theorem 1 (reactive)
	Runs       int
}

// CrossCheck measures P̂_D three ways at the given parameters under
// reactive jamming. The event engine is O(n·m) messages per run, so keep n
// modest (a few hundred).
func CrossCheck(p analysis.Params, runs int, seed int64) (CrossCheckResult, error) {
	if err := p.Validate(); err != nil {
		return CrossCheckResult{}, fmt.Errorf("experiment: %w", err)
	}
	if runs < 1 {
		return CrossCheckResult{}, fmt.Errorf("experiment: runs=%d must be >= 1", runs)
	}

	campaign, err := MeasurePoint(PointConfig{
		Params: p,
		Jammer: JamReactive,
		Runs:   runs,
		Seed:   seed,
	})
	if err != nil {
		return CrossCheckResult{}, err
	}

	var event stats.Sample
	for run := 0; run < runs; run++ {
		pd, err := eventEnginePD(p, seed+int64(run)*104729)
		if err != nil {
			return CrossCheckResult{}, err
		}
		event.Add(pd)
	}

	return CrossCheckResult{
		CampaignPD: campaign.PD,
		EventPD:    event.Mean(),
		TheoryPD:   analysis.DNDPReactive(p),
		Runs:       runs,
	}, nil
}

// eventEnginePD runs one full protocol-engine deployment and returns the
// fraction of honest physical links secured by D-NDP.
func eventEnginePD(p analysis.Params, seed int64) (float64, error) {
	net, err := core.NewNetwork(core.NetworkConfig{
		Params: p,
		Seed:   seed,
		Jammer: core.JamReactive,
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
	g := net.PhysicalGraph()
	edges, secured := 0, 0
	for u := 0; u < net.NumNodes(); u++ {
		if net.Node(u).Compromised() {
			continue
		}
		for _, v := range g.Adj[u] {
			if v <= u || net.Node(v).Compromised() {
				continue
			}
			edges++
			if net.DiscoveredPair(u, v) {
				secured++
			}
		}
	}
	if edges == 0 {
		return 0, fmt.Errorf("experiment: event-engine deployment has no honest edges")
	}
	return float64(secured) / float64(edges), nil
}

// CrossCheckFigure wraps CrossCheck as a printable figure (experiment id
// ext-crosscheck).
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
	res, err := CrossCheck(p, runs, seed)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:    "ext-crosscheck",
		Title: "Cross-fidelity check — P̂_D from three independent engines",
		Series: []Series{
			scalar("campaign Monte Carlo", res.CampaignPD),
			scalar("event-driven protocol engine", res.EventPD),
			scalar("Theorem 1 (reactive)", res.TheoryPD),
		},
		Notes: []string{
			"the campaign models jam outcomes per Theorem 1; the event engine exchanges every message",
			"all three must agree within Monte-Carlo error",
		},
	}, nil
}
