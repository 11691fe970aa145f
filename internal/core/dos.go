package core

import (
	"fmt"

	"repro/internal/adversary"
)

// DoS attack of §V-D: an adversary holding compromised spread codes injects
// fake neighbor-discovery requests to occupy honest nodes with expensive
// verifications. JR-SND bounds the damage: each compromised code can burn
// at most γ verifications per victim before the victim locally revokes it,
// i.e. (l−1)·γ verifications network-wide per code.

// DoSReport aggregates the verification work the attack forced. Injected
// counts frames the attacker actually put on the air: the medium refuses
// waves that fire after the attacker crashed (churn).
type DoSReport struct {
	Injected         int
	KeyComputations  int
	MACVerifications int
	MACFailures      int
	InvalidReports   int
	RevokedCodes     int
}

// RunDoSAttack makes the compromised node `attacker` inject `rounds` waves
// of fake first-authentication messages: the adversary package's Flood
// behavior, with the profile ArmAdversary uses, sends one message per
// (compromised code, physical neighbor holding that code) pair per wave,
// each under a fresh forged sender identity so every injection forces a
// key computation and a MAC verification until the victims revoke the
// code. It returns the work counters accumulated by honest nodes during
// the attack (deltas over the run).
func (n *Network) RunDoSAttack(attacker int, rounds int) (DoSReport, error) {
	profile, err := n.adversaryProfile(attacker)
	if err != nil {
		return DoSReport{}, err
	}
	if !n.nodes[attacker].compromised {
		return DoSReport{}, fmt.Errorf("core: node %d is not compromised; compromise it first", attacker)
	}
	flood, err := adversary.NewFlood(profile, rounds)
	if err != nil {
		return DoSReport{}, fmt.Errorf("core: %w", err)
	}
	before := n.AggregateStats()
	if err := flood.Launch(); err != nil {
		return DoSReport{}, fmt.Errorf("core: %w", err)
	}
	if err := n.engine.Run(); err != nil {
		return DoSReport{}, err
	}
	after := n.AggregateStats()
	return DoSReport{
		Injected:         flood.Counts().Injected,
		KeyComputations:  after.KeyComputations - before.KeyComputations,
		MACVerifications: after.MACVerifications - before.MACVerifications,
		MACFailures:      after.MACFailures - before.MACFailures,
		InvalidReports:   after.InvalidReports - before.InvalidReports,
		RevokedCodes:     after.RevokedCodes - before.RevokedCodes,
	}, nil
}

// AggregateStats sums the network-wide honest-node work counters.
func (n *Network) AggregateStats() NodeStats {
	var total NodeStats
	for _, nd := range n.nodes {
		if nd.compromised {
			continue
		}
		s := nd.Stats()
		total.KeyComputations += s.KeyComputations
		total.MACVerifications += s.MACVerifications
		total.MACFailures += s.MACFailures
		total.SigVerifications += s.SigVerifications
		total.SigFailures += s.SigFailures
		total.InvalidReports += s.InvalidReports
		total.RevokedCodes += s.RevokedCodes
	}
	return total
}
