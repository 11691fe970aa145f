package core

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// ArmAdversary compromises node idx and plugs the given Byzantine
// behavior into the medium as an on-air interceptor (composing with the
// jammer and any channel FaultInjector). The behavior's profile comes
// from adversaryProfile; a Flood injects three waves. The returned
// Byzantine exposes activity counters for assertions.
func (n *Network) ArmAdversary(idx int, kind adversary.Kind) (adversary.Byzantine, error) {
	profile, err := n.adversaryProfile(idx)
	if err != nil {
		return nil, err
	}
	b, err := adversary.New(kind, profile)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := n.Compromise([]int{idx}); err != nil {
		return nil, err
	}
	n.medium.SetInterceptor(b)
	if err := b.Launch(); err != nil {
		return nil, err
	}
	return b, nil
}

// adversaryProfile derives the profile of a Byzantine behavior on node
// idx from the network: the validated Params (the adversary sizes forged
// fields and frames from them, as honest nodes do), the replay delay from
// the session timeout (so replays land on reaped handshake state), flood
// waves paced at t_key, and the flood targets — idx's codes × its honest
// physical neighbors holding them. It refuses a deployment whose honest
// IDs reach the forged-identity range.
func (n *Network) adversaryProfile(idx int) (adversary.Profile, error) {
	if idx < 0 || idx >= len(n.nodes) {
		return adversary.Profile{}, fmt.Errorf("core: adversary index %d out of range", idx)
	}
	if len(n.nodes) > adversary.ForgedIDBase {
		return adversary.Profile{}, fmt.Errorf("core: %d nodes overlap the forged identities from %d", len(n.nodes), adversary.ForgedIDBase)
	}
	att := n.nodes[idx]
	p := n.params

	// Replays must outlive the half-open GC to probe the replay window:
	// 1.5× the session timeout lands after the responder reap fires.
	retry := n.cfg.Retry
	if retry == nil {
		retry = DefaultRetryConfig(p)
	}

	var targets []adversary.FloodTarget
	for _, c := range att.codes {
		for _, victim := range n.graph.Adj[idx] {
			vn := n.nodes[victim]
			if vn.compromised || !vn.codeSet[c] {
				continue
			}
			targets = append(targets, adversary.FloodTarget{Victim: victim, Code: c})
		}
	}

	return adversary.Profile{
		Node:          idx,
		Rng:           n.streams.Get("adversary"),
		Engine:        n.engine,
		Tx:            n.medium,
		Params:        p,
		ReplayDelay:   retry.SessionTimeout * 3 / 2,
		FloodTargets:  targets,
		FloodInterval: sim.Time(p.TKey),
	}, nil
}
