package core

import (
	"encoding/json"
	"testing"

	"repro/internal/codepool"
	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/wire"
)

// allPoolCodes lists every code in the network's pool.
func allPoolCodes(net *Network) []codepool.CodeID {
	codes := make([]codepool.CodeID, net.Pool().S())
	for i := range codes {
		codes[i] = codepool.CodeID(i)
	}
	return codes
}

func TestRetryConfigValidation(t *testing.T) {
	bad := []RetryConfig{{SessionTimeout: 0}, {SessionTimeout: -1}}
	for i, cfg := range bad {
		cfg := cfg
		_, err := NewNetwork(NetworkConfig{
			Params:    smallParams(2, 5),
			Seed:      1,
			Jammer:    JamNone,
			Positions: clusterPositions(2),
			Retry:     &cfg,
		})
		if err == nil {
			t.Fatalf("config %d: invalid RetryConfig accepted", i)
		}
	}
	if err := DefaultRetryConfig(smallParams(2, 5)).validate(); err != nil {
		t.Fatalf("DefaultRetryConfig invalid: %v", err)
	}
}

func TestClockSkewSpreadValidationAndBounds(t *testing.T) {
	if _, err := NewNetwork(NetworkConfig{
		Params:          smallParams(2, 5),
		Seed:            1,
		Jammer:          JamNone,
		Positions:       clusterPositions(2),
		ClockSkewSpread: 1.0,
	}); err == nil {
		t.Fatal("ClockSkewSpread = 1.0 accepted")
	}
	net, err := NewNetwork(NetworkConfig{
		Params:          smallParams(4, 5),
		Seed:            1,
		Jammer:          JamNone,
		Positions:       clusterPositions(4),
		ClockSkewSpread: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < net.NumNodes(); i++ {
		s := net.Node(i).ClockSkew()
		if s < 0.8 || s > 1.2 {
			t.Fatalf("node %d skew %v outside [0.8, 1.2]", i, s)
		}
	}
}

// TestHalfOpenLeakReapedByGC is the regression test for the half-open
// session leak: under the intelligent attack with the whole pool
// compromised, HELLOs pass but every CONFIRM/AUTH is destroyed, so the
// paper's happy-path engine strands responder state forever. The retry
// state machine's session-timeout GC must reap all of it.
func TestHalfOpenLeakReapedByGC(t *testing.T) {
	build := func(retry *RetryConfig, reg *metrics.Registry) *Network {
		net, err := NewNetwork(NetworkConfig{
			Params:    smallParams(4, 5),
			Seed:      7,
			Jammer:    JamIntelligent,
			Positions: clusterPositions(4),
			Retry:     retry,
			Metrics:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.CompromiseCodes(allPoolCodes(net)); err != nil {
			t.Fatal(err)
		}
		return net
	}
	leak := func(net *Network) int {
		total := 0
		for i := 0; i < net.NumNodes(); i++ {
			total += net.Node(i).HalfOpenOlderThan(0)
		}
		return total
	}

	seed := build(nil, nil)
	if err := seed.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if got := leak(seed); got == 0 {
		t.Fatal("seed behavior expected to strand half-open responder state under the intelligent attack")
	}

	reg := metrics.New()
	hardened := build(DefaultRetryConfig(smallParams(4, 5)), reg)
	if err := hardened.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if got := leak(hardened); got != 0 {
		t.Fatalf("retry GC left %d half-open records at quiescence", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["jrsnd_core_halfopen_gc_total"] == 0 {
		t.Fatal("half-open GC counter never incremented")
	}
	if snap.Counters["jrsnd_core_handshake_retries_total"] == 0 {
		t.Fatal("retry counter never incremented")
	}
}

// TestRetryFallbackRecoversDiscovery is the acceptance test: a fault
// schedule the seed protocol cannot survive (every CONFIRM from nodes 0
// and 1 destroyed, so D-NDP between them can never complete) is recovered
// by the hardened engine — retries exhaust the budget, the nodes degrade
// to M-NDP through node 2, and the pair completes discovery.
func TestRetryFallbackRecoversDiscovery(t *testing.T) {
	dropConfirms := radio.InjectorFunc(func(from, to int, msg radio.Message) radio.FaultDecision {
		if msg.Kind == wire.KindConfirm && from <= 1 {
			return radio.FaultDecision{Drop: true}
		}
		return radio.FaultDecision{}
	})
	build := func(retry *RetryConfig, reg *metrics.Registry) *Network {
		net, err := NewNetwork(NetworkConfig{
			Params:    smallParams(3, 5),
			Seed:      11,
			Jammer:    JamNone,
			Positions: clusterPositions(3),
			Faults:    dropConfirms,
			Retry:     retry,
			Metrics:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}

	seed := build(nil, nil)
	if err := seed.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if seed.DiscoveredPair(0, 1) {
		t.Fatal("fault schedule too weak: seed protocol discovered the pair anyway")
	}

	reg := metrics.New()
	hardened := build(DefaultRetryConfig(smallParams(3, 5)), reg)
	if err := hardened.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if !hardened.DiscoveredPair(0, 1) {
		t.Fatal("retry + M-NDP fallback failed to recover discovery of the faulted pair")
	}
	via := DiscoveryMethod(0)
	for _, d := range hardened.Discoveries() {
		if d.A == 0 && d.B == 1 {
			via = d.Via
		}
	}
	if via != ViaMNDP {
		t.Fatalf("faulted pair discovered via %v, want M-NDP fallback", via)
	}
	if reg.Snapshot().Counters["jrsnd_core_mndp_fallbacks_total"] == 0 {
		t.Fatal("fallback counter never incremented")
	}
	leak := 0
	for i := 0; i < hardened.NumNodes(); i++ {
		leak += hardened.Node(i).HalfOpenOlderThan(0)
	}
	if leak != 0 {
		t.Fatalf("%d half-open records left at quiescence", leak)
	}
}

// TestNetworkSameSeedDeterminism runs the full hardened stack twice with
// identical seeds — pulse jamming, channel faults, retries, skewed clocks,
// modeled delays — and requires byte-identical discovery records and
// metric snapshots.
func TestNetworkSameSeedDeterminism(t *testing.T) {
	run := func() ([]byte, []byte) {
		faultRng := sim.NewStreams(99).Get("channel-faults")
		loss := radio.InjectorFunc(func(from, to int, msg radio.Message) radio.FaultDecision {
			return radio.FaultDecision{Drop: faultRng.Float64() < 0.15}
		})
		reg := metrics.New()
		net, err := NewNetwork(NetworkConfig{
			Params:                smallParams(8, 5),
			Seed:                  42,
			Jammer:                JamPulse,
			Positions:             clusterPositions(8),
			Faults:                loss,
			Retry:                 DefaultRetryConfig(smallParams(8, 5)),
			ClockSkewSpread:       0.1,
			ModelProcessingDelays: true,
			Metrics:               reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.CompromiseRandom(2); err != nil {
			t.Fatal(err)
		}
		if err := net.RunDNDP(1); err != nil {
			t.Fatal(err)
		}
		if err := net.RunMNDP(1); err != nil {
			t.Fatal(err)
		}
		pairs, err := json.Marshal(net.Discoveries())
		if err != nil {
			t.Fatal(err)
		}
		s := reg.Snapshot()
		// The virtual/wall speed ratio measures the host, not the run.
		delete(s.Gauges, "jrsnd_sim_virtual_wall_ratio")
		snap, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return pairs, snap
	}
	pairs1, snap1 := run()
	pairs2, snap2 := run()
	if string(pairs1) != string(pairs2) {
		t.Fatalf("same seed produced different discoveries:\n%s\nvs\n%s", pairs1, pairs2)
	}
	if string(snap1) != string(snap2) {
		t.Fatalf("same seed produced different metric snapshots:\n%s\nvs\n%s", snap1, snap2)
	}
}

// TestChurnCrashRestartRediscovery drives a crash → expire → restart →
// re-discover cycle and checks that the pair ledger gains exactly one new
// record per re-formed link and none for links that never broke.
func TestChurnCrashRestartRediscovery(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(3, 5),
		Seed:      5,
		Jammer:    JamNone,
		Positions: clusterPositions(3),
		Retry:     DefaultRetryConfig(smallParams(3, 5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if len(net.Discoveries()) != 3 {
		t.Fatalf("initial discoveries = %d, want 3", len(net.Discoveries()))
	}

	if err := net.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	if !net.Node(0).Down() {
		t.Fatal("node 0 not down after crash")
	}
	if got := len(net.Node(0).Neighbors()); got != 0 {
		t.Fatalf("crashed node kept %d neighbors", got)
	}
	if dropped := net.ExpireStaleNeighbors(); dropped != 2 {
		t.Fatalf("ExpireStaleNeighbors dropped %d links, want 2 (0-1, 0-2)", dropped)
	}
	if net.Node(1).IsLogicalNeighbor(0) || net.Node(2).IsLogicalNeighbor(0) {
		t.Fatal("peers kept the crashed node as a logical neighbor past the monitor timeout")
	}

	// A discovery round while the node is down must not duplicate the
	// still-live 1-2 pair record.
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if len(net.Discoveries()) != 3 {
		t.Fatalf("discovery round while node down grew the ledger to %d, want 3", len(net.Discoveries()))
	}

	if err := net.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if err := net.RunDiscoveryFor(0); err != nil {
		t.Fatal(err)
	}
	if !net.DiscoveredPair(0, 1) || !net.DiscoveredPair(0, 2) {
		t.Fatal("restarted node failed to re-discover its neighbors")
	}
	counts := map[[2]int]int{}
	for _, d := range net.Discoveries() {
		counts[[2]int{int(d.A), int(d.B)}]++
	}
	want := map[[2]int]int{{0, 1}: 2, {0, 2}: 2, {1, 2}: 1}
	for pair, n := range want {
		if counts[pair] != n {
			t.Fatalf("pair %v has %d records, want %d (ledger %v)", pair, counts[pair], n, counts)
		}
	}

	// Late join under the same churned deployment: the joiner discovers
	// everyone exactly once.
	idx, err := net.JoinNode(field.Point{X: 130, Y: 130})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDiscoveryFor(idx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < idx; i++ {
		if !net.DiscoveredPair(idx, i) {
			t.Fatalf("joiner failed to discover node %d", i)
		}
	}
	if got := len(net.Discoveries()); got != 8 {
		t.Fatalf("ledger has %d records after join, want 8", got)
	}
}

// TestExpireSilentSessions checks the inactivity-timeout sweep drops only
// one-sided entries: a crash wipes node 0's acceptance records, so a peer
// that accepted node 0 mid-handshake is left one-sided and must be reaped.
func TestExpireSilentSessions(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(3, 5),
		Seed:      3,
		Jammer:    JamNone,
		Positions: clusterPositions(3),
		Retry:     DefaultRetryConfig(smallParams(3, 5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if got := net.ExpireSilentSessions(); got != 0 {
		t.Fatalf("healthy network reaped %d silent sessions, want 0", got)
	}
	// Crash node 0: peers 1 and 2 still list it, but its acceptance records
	// are gone — their entries are now one-sided.
	if err := net.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	if got := net.ExpireSilentSessions(); got != 2 {
		t.Fatalf("reaped %d silent sessions, want 2", got)
	}
	if net.Node(1).IsLogicalNeighbor(0) || net.Node(2).IsLogicalNeighbor(0) {
		t.Fatal("one-sided sessions survived the inactivity sweep")
	}
	if net.Node(1).IsLogicalNeighbor(2) == false {
		t.Fatal("healthy 1-2 session was wrongly reaped")
	}
}

// TestCrashDropsMNDPPendingReap: a crash discards the node's M-NDP
// pendings, so the session timeout must not reap, or count, one the crash
// already dropped. Node 0 opens a responder-side pending (every frame is
// lost, so nothing completes it) and, in the crash case, fails at once.
func TestCrashDropsMNDPPendingReap(t *testing.T) {
	dropAll := radio.InjectorFunc(func(int, int, radio.Message) radio.FaultDecision {
		return radio.FaultDecision{Drop: true}
	})
	for _, tc := range []struct {
		name   string
		crash  bool
		wantGC uint64
	}{{"no crash", false, 1}, {"crash", true, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			net, err := NewNetwork(NetworkConfig{
				Params:    smallParams(3, 5),
				Seed:      7,
				Jammer:    JamNone,
				Positions: clusterPositions(3),
				Retry:     DefaultRetryConfig(smallParams(3, 5)),
				Faults:    dropAll,
				Metrics:   reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			nd := net.Node(0)
			nd.respondToRequest(wire.MNDPRequest{
				Nonce: []byte{1, 2, 3, 4},
				Nu:    2,
				Hops:  []wire.Hop{{ID: net.Node(2).ID()}},
			})
			for len(nd.mndpIn) == 0 {
				if !net.engine.Step() {
					t.Fatal("the M-NDP pending never opened")
				}
			}
			if tc.crash {
				if err := net.CrashNode(0); err != nil {
					t.Fatal(err)
				}
			}
			if err := net.engine.Run(); err != nil {
				t.Fatal(err)
			}
			if got := reg.Snapshot().Counters["jrsnd_core_halfopen_gc_total"]; got != tc.wantGC {
				t.Fatalf("halfopen_gc_total = %d, want %d", got, tc.wantGC)
			}
		})
	}
}
