package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/field"
	"repro/internal/metrics"
)

// findMNDPTopology searches seeds for a network where nodes 0 and 1 are
// physical neighbors with no shared codes, but node 2 shares codes with
// both — the canonical M-NDP scenario of Fig. 1.
func findMNDPTopology(t *testing.T, cfg func(seed int64) NetworkConfig) *Network {
	t.Helper()
	for seed := int64(0); seed < 400; seed++ {
		net, err := NewNetwork(cfg(seed))
		if err != nil {
			t.Fatal(err)
		}
		pool := net.Pool()
		if len(pool.Shared(0, 1)) == 0 && len(pool.Shared(0, 2)) > 0 && len(pool.Shared(1, 2)) > 0 {
			return net
		}
	}
	t.Fatal("no seed produced the A–B/C topology; loosen the search")
	return nil
}

// mndpParams: sparse sharing so a no-shared-codes pair exists.
func mndpParams(n int) analysis.Params {
	p := analysis.Defaults()
	p.N = n
	p.M = 2
	p.L = 3
	p.Q = 0
	p.Nu = 2
	p.FieldWidth, p.FieldHeight = 2000, 2000
	p.Range = 300
	return p
}

// trianglePositions puts nodes 0,1,2 in mutual range and scatters the rest
// far away in a corner grid.
func trianglePositions(n int) []field.Point {
	pts := make([]field.Point, n)
	pts[0] = field.Point{X: 200, Y: 200}
	pts[1] = field.Point{X: 400, Y: 200}
	pts[2] = field.Point{X: 300, Y: 300}
	for i := 3; i < n; i++ {
		pts[i] = field.Point{X: 1500 + float64(i%8)*40, Y: 1500 + float64(i/8)*40}
	}
	return pts
}

func TestMNDPDiscoversViaCommonNeighbor(t *testing.T) {
	net := findMNDPTopology(t, func(seed int64) NetworkConfig {
		return NetworkConfig{
			Params:    mndpParams(30),
			Seed:      seed,
			Jammer:    JamNone,
			Positions: trianglePositions(30),
		}
	})
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if net.DiscoveredPair(0, 1) {
		t.Fatal("pair without shared codes discovered via D-NDP — topology search broken")
	}
	if !net.DiscoveredPair(0, 2) || !net.DiscoveredPair(1, 2) {
		t.Fatal("D-NDP failed on the shared-code edges")
	}
	if err := net.RunMNDP(1); err != nil {
		t.Fatal(err)
	}
	if !net.DiscoveredPair(0, 1) {
		t.Fatal("M-NDP failed to discover the pair via the common neighbor")
	}
	// Verify the discovery is recorded as M-NDP.
	found := false
	for _, d := range net.Discoveries() {
		if (d.A == 0 && d.B == 1) || (d.A == 1 && d.B == 0) {
			found = true
			if d.Via != ViaMNDP {
				t.Fatalf("pair (0,1) Via = %v, want M-NDP", d.Via)
			}
		}
	}
	if !found {
		t.Fatal("pair (0,1) missing from discovery records")
	}
}

// chainConfig is the 0-1-2-3 chain at 250 m spacing (300 m range), so
// only adjacent chain nodes are physical neighbors; every node holds every
// code, so D-NDP secures each chain edge. The other nodes sit far away.
func chainConfig(seed int64) NetworkConfig {
	p := mndpParams(20)
	p.L = 20
	p.M = 3
	positions := make([]field.Point, 20)
	for i := 0; i < 4; i++ {
		positions[i] = field.Point{X: 200 + float64(i)*250, Y: 200}
	}
	for i := 4; i < 20; i++ {
		positions[i] = field.Point{X: 1800, Y: 1500 + float64(i)*20}
	}
	return NetworkConfig{Params: p, Seed: seed, Jammer: JamNone, Positions: positions}
}

func TestMNDPHonorsHopBound(t *testing.T) {
	// Node 0 and node 2 are NOT physical neighbors, so even though
	// requests reach them, the beacon exchange cannot complete.
	net, err := NewNetwork(chainConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !net.DiscoveredPair(i, i+1) {
			t.Fatalf("chain edge (%d,%d) not discovered", i, i+1)
		}
	}
	if err := net.RunMNDP(1); err != nil {
		t.Fatal(err)
	}
	// 0 and 2 are 500 m apart: no physical edge, so no logical edge even
	// though the M-NDP request reached node 2.
	if net.DiscoveredPair(0, 2) {
		t.Fatal("M-NDP accepted a non-physical neighbor (beacon check failed)")
	}
}

func TestMNDPGPSFilterSuppressesFarResponders(t *testing.T) {
	// On the chain, node 2 is two hops but 500 m from node 0. Without the
	// filter each answers the other's request: it derives the key, holds a
	// half-open M-NDP record and beacons in vain. With the filter neither
	// answers, so no response, beacon or key computation happens at all.
	// The beacon keeps (0,2) undiscovered either way.
	for _, filter := range []bool{false, true} {
		reg := metrics.New()
		cfg := chainConfig(13)
		cfg.GPSFilter = filter
		cfg.Metrics = reg
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.RunDNDP(1); err != nil {
			t.Fatal(err)
		}
		far := net.Node(2)
		keysBefore := far.Stats().KeyComputations
		if err := net.RunMNDP(1); err != nil {
			t.Fatal(err)
		}
		counters := reg.Snapshot().Counters
		for _, c := range []struct {
			what string
			n    uint64
		}{
			{"MNDP-RESP sent", counters[`jrsnd_core_tx_total{kind="MNDP-RESP"}`]},
			{"SESS-HELLO sent", counters[`jrsnd_core_tx_total{kind="SESS-HELLO"}`]},
			{"node 2 keys", uint64(far.Stats().KeyComputations - keysBefore)},
			{"node 2 half-open M-NDP", uint64(len(far.mndpIn) + len(far.mndpOut))},
		} {
			if filter && c.n != 0 {
				t.Errorf("filter on: %s = %d, want 0", c.what, c.n)
			}
			if !filter && c.n == 0 {
				t.Errorf("filter off: %s = 0, want > 0", c.what)
			}
		}
		if net.DiscoveredPair(0, 2) {
			t.Fatalf("filter %v: out-of-range pair (0,2) discovered", filter)
		}
	}
}

func TestMNDPSignatureVerificationWork(t *testing.T) {
	// Every processed request charges signature verifications; the stats
	// must reflect that (the DoS argument rests on this cost being real).
	net := findMNDPTopology(t, func(seed int64) NetworkConfig {
		return NetworkConfig{
			Params:    mndpParams(30),
			Seed:      seed,
			Jammer:    JamNone,
			Positions: trianglePositions(30),
		}
	})
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if err := net.RunMNDP(1); err != nil {
		t.Fatal(err)
	}
	total := net.AggregateStats()
	if total.SigVerifications == 0 {
		t.Fatal("M-NDP ran without any signature verifications")
	}
	if total.SigFailures != 0 {
		t.Fatalf("%d signature failures among honest nodes", total.SigFailures)
	}
}

func TestMNDPLatencyMatchesTheorem4Magnitude(t *testing.T) {
	// With processing delays modeled, the M-NDP completion time for a
	// 2-hop discovery must land in the Theorem-4 regime: dominated by the
	// 2ν(ν+1)·t_ver signature-verification chain plus key computation and
	// beacon airtime. Theorem 4 is an average-case formula over larger
	// neighborhoods, so assert the order of magnitude, not the digit.
	var sumLatency float64
	completed := 0
	for seed := int64(0); seed < 400 && completed < 5; seed++ {
		net, err := NewNetwork(NetworkConfig{
			Params:                mndpParams(30),
			Seed:                  seed,
			Jammer:                JamNone,
			Positions:             trianglePositions(30),
			ModelProcessingDelays: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		pool := net.Pool()
		if !(len(pool.Shared(0, 1)) == 0 && len(pool.Shared(0, 2)) > 0 && len(pool.Shared(1, 2)) > 0) {
			continue
		}
		if err := net.RunDNDP(1); err != nil {
			t.Fatal(err)
		}
		if !net.DiscoveredPair(0, 2) || !net.DiscoveredPair(1, 2) {
			continue
		}
		if err := net.RunMNDP(1); err != nil {
			t.Fatal(err)
		}
		if !net.DiscoveredPair(0, 1) {
			continue
		}
		for _, d := range net.Discoveries() {
			if d.Via == ViaMNDP && ((d.A == 0 && d.B == 1) || (d.A == 1 && d.B == 0)) {
				sumLatency += float64(d.Latency)
				completed++
			}
		}
	}
	if completed == 0 {
		t.Fatal("no M-NDP discovery completed across the seed sweep")
	}
	measured := sumLatency / float64(completed)
	p := mndpParams(30)
	theory := analysis.MNDPLatency(p, 2, 2) // tiny neighborhoods: g ≈ 2
	if measured < theory/4 || measured > theory*4 {
		t.Fatalf("mean M-NDP latency %.3fs outside [T̄_M/4, 4·T̄_M] around Theorem 4's %.3fs",
			measured, theory)
	}
}

func TestMNDPRequiresLogicalNeighbors(t *testing.T) {
	// A node with no logical neighbors initiating M-NDP is a no-op.
	net, err := NewNetwork(NetworkConfig{
		Params:    mndpParams(10),
		Seed:      14,
		Jammer:    JamNone,
		Positions: trianglePositions(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Node(0).initiateMNDP()
	if err := net.Engine().Run(); err != nil {
		t.Fatal(err)
	}
	if got := net.MediumStats().Transmissions; got != 0 {
		t.Fatalf("lonely M-NDP initiation transmitted %d messages", got)
	}
}
