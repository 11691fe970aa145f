package core

import (
	"fmt"

	"repro/internal/ibc"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/wire"
)

// DoS attack of §V-D: an adversary holding compromised spread codes injects
// fake neighbor-discovery requests to occupy honest nodes with expensive
// verifications. JR-SND bounds the damage: each compromised code can burn
// at most γ verifications per victim before the victim locally revokes it,
// i.e. (l−1)·γ verifications network-wide per code.

// DoSReport aggregates the verification work the attack forced. Injected
// counts frames the attacker actually put on the air — waves scheduled
// after the attacker crashed (churn) do not transmit and are not counted.
type DoSReport struct {
	Injected         int
	KeyComputations  int
	MACVerifications int
	MACFailures      int
	InvalidReports   int
	RevokedCodes     int
}

// RunDoSAttack makes the compromised node `attacker` inject `rounds` waves
// of fake first-authentication messages: one message per (compromised code,
// physical neighbor holding that code) pair per wave, each under a fresh
// forged sender identity so every injection forces a key computation and a
// MAC verification until the victims revoke the code. It returns the work
// counters accumulated by honest nodes during the attack (deltas over the
// run).
func (n *Network) RunDoSAttack(attacker int, rounds int) (DoSReport, error) {
	if attacker < 0 || attacker >= len(n.nodes) {
		return DoSReport{}, fmt.Errorf("core: attacker index %d out of range", attacker)
	}
	if !n.compromisedNodes[attacker] {
		return DoSReport{}, fmt.Errorf("core: node %d is not compromised; compromise it first", attacker)
	}
	if rounds < 1 {
		return DoSReport{}, fmt.Errorf("core: rounds=%d must be >= 1", rounds)
	}
	before := n.aggregateStats()
	att := n.nodes[attacker]
	p := n.params
	bits := p.LenID + p.LenNonce + p.LenMAC
	fakeID := uint16(60000)
	injected := 0
	interval := sim.Time(p.TKey) // pace waves roughly at victim work rate
	for round := 0; round < rounds; round++ {
		at := interval * sim.Time(round)
		for _, c := range att.codes {
			for _, victim := range n.graph.Adj[attacker] {
				vn := n.nodes[victim]
				if vn.compromised || !vn.codeSet[c] {
					continue
				}
				sender := ibc.NodeID(fakeID)
				fakeID++
				c, victim := c, victim
				garbageMAC := make([]byte, p.LenMAC/8)
				for i := range garbageMAC {
					garbageMAC[i] = byte(att.rng.Intn(256))
				}
				nonce := att.newNonce()
				n.engine.MustSchedule(at, func() {
					// A crashed attacker radio transmits nothing: waves
					// scheduled past a mid-attack churn crash must not
					// count as injected work.
					if att.down {
						return
					}
					injected++
					_ = n.send(attacker, victim, radio.Message{
						Kind:        wire.KindAuth1,
						Code:        c,
						PayloadBits: bits,
						Payload: wire.Auth{
							Sender: sender,
							Peer:   ibc.NodeID(victim),
							Nonce:  nonce,
							MAC:    garbageMAC,
						},
					})
				})
			}
		}
	}
	if err := n.engine.Run(); err != nil {
		return DoSReport{}, err
	}
	after := n.aggregateStats()
	return DoSReport{
		Injected:         injected,
		KeyComputations:  after.KeyComputations - before.KeyComputations,
		MACVerifications: after.MACVerifications - before.MACVerifications,
		MACFailures:      after.MACFailures - before.MACFailures,
		InvalidReports:   after.InvalidReports - before.InvalidReports,
		RevokedCodes:     after.RevokedCodes - before.RevokedCodes,
	}, nil
}

// aggregateStats sums honest-node work counters.
func (n *Network) aggregateStats() NodeStats {
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

// AggregateStats exposes the network-wide honest-node work counters.
func (n *Network) AggregateStats() NodeStats { return n.aggregateStats() }
