package core

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/sim"
)

// Epoch-driven operation: the paper's nodes "periodically perform neighbor
// discovery" as mobility changes the topology. RunEpochs packages the loop
// the examples hand-roll: step the mobility model, expire monitor-timed-out
// sessions, re-run both protocols, and report per-epoch coverage.

// EpochStats summarizes one discovery epoch.
type EpochStats struct {
	Epoch          int
	PhysicalLinks  int // honest physical links at the epoch's topology
	SecuredLinks   int // of those, mutually discovered
	Expired        int // sessions dropped by the monitor timeout this epoch
	NewDiscoveries int // pairs recorded during this epoch's rounds
}

// Coverage returns the secured fraction.
func (s EpochStats) Coverage() float64 {
	if s.PhysicalLinks == 0 {
		return 0
	}
	return float64(s.SecuredLinks) / float64(s.PhysicalLinks)
}

// EpochConfig drives RunEpochs.
type EpochConfig struct {
	// Mobility steps node positions between epochs; nil keeps the
	// topology static.
	Mobility *field.Waypoint
	// StepSeconds of mobility per epoch (must be > 0 when Mobility set).
	StepSeconds float64
	// Epochs to run (>= 1).
	Epochs int
	// Window is the randomized-initiation window per protocol round.
	Window sim.Time
	// MNDP also runs an M-NDP round each epoch.
	MNDP bool
}

// RunEpochs executes the periodic-discovery loop and returns one stats row
// per epoch.
func (n *Network) RunEpochs(cfg EpochConfig) ([]EpochStats, error) {
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("core: epochs=%d must be >= 1", cfg.Epochs)
	}
	if cfg.Mobility != nil {
		if cfg.StepSeconds <= 0 {
			return nil, fmt.Errorf("core: StepSeconds=%v must be positive with mobility", cfg.StepSeconds)
		}
		if cfg.Mobility.Len() != n.NumNodes() {
			return nil, fmt.Errorf("core: mobility tracks %d nodes, network has %d",
				cfg.Mobility.Len(), n.NumNodes())
		}
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	out := make([]EpochStats, 0, cfg.Epochs)
	prevDiscoveries := len(n.Discoveries())
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		st := EpochStats{Epoch: epoch}
		if epoch > 0 && cfg.Mobility != nil {
			cfg.Mobility.Step(cfg.StepSeconds)
			if err := n.UpdatePositions(cfg.Mobility.Positions()); err != nil {
				return nil, err
			}
			st.Expired = n.ExpireStaleNeighbors()
		}
		if err := n.RunDNDP(cfg.Window); err != nil {
			return nil, err
		}
		if cfg.MNDP {
			if err := n.RunMNDP(cfg.Window); err != nil {
				return nil, err
			}
		}
		st.SecuredLinks, st.PhysicalLinks = n.SecuredHonestLinks()
		st.NewDiscoveries = len(n.Discoveries()) - prevDiscoveries
		prevDiscoveries = len(n.Discoveries())
		out = append(out, st)
	}
	return out, nil
}

// SecuredHonestLinks counts current physical links between honest nodes
// and how many are mutually discovered.
func (n *Network) SecuredHonestLinks() (secured, total int) {
	for u := 0; u < n.NumNodes(); u++ {
		if n.nodes[u].compromised {
			continue
		}
		for _, v := range n.graph.Adj[u] {
			if v <= u || n.nodes[v].compromised {
				continue
			}
			total++
			if n.DiscoveredPair(u, v) {
				secured++
			}
		}
	}
	return secured, total
}
