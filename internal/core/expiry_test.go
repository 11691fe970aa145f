package core

import (
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/ibc"
	"repro/internal/trace"
)

func TestExpireStaleNeighborsDropsOutOfRangePairs(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(3, 5),
		Seed:      41,
		Jammer:    JamNone,
		Positions: clusterPositions(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if !net.DiscoveredPair(0, 1) || !net.DiscoveredPair(0, 2) {
		t.Fatal("cluster failed to discover")
	}
	// Nothing is stale while everyone stays in range.
	if dropped := net.ExpireStaleNeighbors(); dropped != 0 {
		t.Fatalf("dropped %d links without any movement", dropped)
	}
	// Node 2 wanders away.
	pos := net.Positions()
	pos[2] = field.Point{X: 950, Y: 950}
	if err := net.UpdatePositions(pos); err != nil {
		t.Fatal(err)
	}
	dropped := net.ExpireStaleNeighbors()
	if dropped != 2 {
		t.Fatalf("dropped %d links, want 2 (2-0 and 2-1)", dropped)
	}
	if net.DiscoveredPair(0, 2) || net.DiscoveredPair(1, 2) {
		t.Fatal("stale pairs still discovered")
	}
	if !net.DiscoveredPair(0, 1) {
		t.Fatal("in-range pair was wrongly expired")
	}
}

func TestRediscoveryAfterExpiry(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(2, 5),
		Seed:      42,
		Jammer:    JamNone,
		Positions: clusterPositions(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if !net.DiscoveredPair(0, 1) {
		t.Fatal("initial discovery failed")
	}
	// Separate, expire, then reunite and re-run discovery.
	apart := []field.Point{{X: 100, Y: 100}, {X: 900, Y: 900}}
	if err := net.UpdatePositions(apart); err != nil {
		t.Fatal(err)
	}
	if dropped := net.ExpireStaleNeighbors(); dropped != 1 {
		t.Fatalf("dropped %d, want 1", dropped)
	}
	together := clusterPositions(2)
	if err := net.UpdatePositions(together); err != nil {
		t.Fatal(err)
	}
	if net.DiscoveredPair(0, 1) {
		t.Fatal("pair discovered before re-running the protocol")
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if !net.DiscoveredPair(0, 1) {
		t.Fatal("re-discovery after expiry failed")
	}
}

// TestPerPeerEventsInAscendingPeerOrder: the expiry sweeps and the crash
// span closer walk a node's per-peer state in ascending peer ID, so a
// traced run replays byte-identically even though that state lives in
// maps. Node 0 holds 11 peers, far more than a lucky map order can hide.
func TestPerPeerEventsInAscendingPeerOrder(t *testing.T) {
	const n = 12
	rec, err := trace.NewRecorder(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(n, 5),
		Seed:      5,
		Jammer:    JamNone,
		Positions: clusterPositions(n),
		Trace:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	nd := net.nodes[0]
	if len(nd.neighbors) != n-1 {
		t.Fatalf("node 0 discovered %d peers, want %d", len(nd.neighbors), n-1)
	}
	var ascending []int
	for p := 1; p < n; p++ {
		ascending = append(ascending, p)
	}
	peersOf := func(kind trace.Kind, detail string) []int {
		var out []int
		for _, e := range rec.Filter(kind, 0, detail) {
			if e.Node == 0 {
				out = append(out, e.Peer)
			}
		}
		return out
	}

	// Node 0 leaves the cluster: every link it held goes stale.
	pos := net.Positions()
	pos[0] = field.Point{X: 950, Y: 950}
	if err := net.UpdatePositions(pos); err != nil {
		t.Fatal(err)
	}
	net.ExpireStaleNeighbors()
	if got := peersOf(trace.KindExpiry, "monitor timeout"); !slices.Equal(got, ascending) {
		t.Errorf("stale-neighbor expiries in peer order %v, want %v", got, ascending)
	}

	// One-sided entries nobody reciprocates.
	for _, p := range ascending {
		nd.neighbors[ibc.NodeID(p)] = &Neighbor{ID: ibc.NodeID(p)}
	}
	net.ExpireSilentSessions()
	if got := peersOf(trace.KindExpiry, "inactivity timeout"); !slices.Equal(got, ascending) {
		t.Errorf("silent-session expiries in peer order %v, want %v", got, ascending)
	}

	// Open per-peer spans on both handshake sides, then a crash.
	nd.initiator = &dndpInitiatorState{peers: map[ibc.NodeID]*dndpInitiatorPeer{}}
	for _, p := range ascending {
		nd.initiator.peers[ibc.NodeID(p)] = &dndpInitiatorPeer{prepSpan: net.spanStart(0, 0, p, "dndp.auth1_prep")}
		nd.responders[ibc.NodeID(p)] = &dndpResponderState{bufferSpan: net.spanStart(0, 0, p, "dndp.hello_buffer")}
	}
	if err := net.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	if got, want := peersOf(trace.KindSpanEnd, "crashed"), append(slices.Clone(ascending), ascending...); !slices.Equal(got, want) {
		t.Errorf("crash span closes in peer order %v, want %v", got, want)
	}
}
