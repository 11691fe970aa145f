package core

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/codepool"
	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/wire"
)

// TestCoreInstrumentsPinned runs the small protocol scenarios against one
// shared registry so that every instrument newCoreMetrics registers moves,
// then pins the whole counter map and every histogram's count. A refactor
// of the instrumentation call sites must leave both unchanged.
func TestCoreInstrumentsPinned(t *testing.T) {
	reg := metrics.New()
	build := func(cfg NetworkConfig) *Network {
		t.Helper()
		cfg.Metrics = reg
		net, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	run := func(net *Network) {
		t.Helper()
		if err := net.RunDNDP(1); err != nil {
			t.Fatal(err)
		}
	}

	// Byzantine adversaries under the replay/DoS defenses.
	defended := func(seed int64) *Network {
		p := smallParams(4, 5)
		return build(NetworkConfig{Params: p, Seed: seed, Jammer: JamNone,
			Positions: clusterPositions(4), Defense: DefaultDefenseConfig(p)})
	}
	for _, c := range []struct {
		seed int64
		kind adversary.Kind
	}{{72, adversary.Replay}, {75, adversary.BitFlip}, {73, adversary.Flood}} {
		net := defended(c.seed)
		if _, err := net.ArmAdversary(3, c.kind); err != nil {
			t.Fatal(err)
		}
		run(net)
	}
	// A recorded AUTH1, replayed after its handshake record was reaped,
	// dies in the victim's replay window.
	replay := defended(71)
	var recorded radio.Message
	replay.medium.SetInterceptor(radio.InterceptorFunc(func(from, to int, msg radio.Message) radio.Message {
		if recorded.Payload == nil && msg.Kind == wire.KindAuth1 {
			recorded = msg
			recorded.Payload = append([]byte(nil), msg.Payload.([]byte)...)
		}
		return msg
	}))
	run(replay)
	replay.medium.SetInterceptor(nil)
	_, payload, err := wire.Decode(recorded.Payload.([]byte), replay.limits)
	if err != nil {
		t.Fatal(err)
	}
	auth := payload.(wire.Auth)
	delete(replay.Node(int(auth.Peer)).responders, auth.Sender)
	adv := 0
	for adv == int(auth.Sender) || adv == int(auth.Peer) {
		adv++
	}
	if err := replay.medium.Broadcast(adv, recorded); err != nil {
		t.Fatal(err)
	}
	if err := replay.engine.Run(); err != nil {
		t.Fatal(err)
	}

	// Retry exhaustion degrades the confirm-starved pair to M-NDP.
	dropConfirms := radio.InjectorFunc(func(from, to int, msg radio.Message) radio.FaultDecision {
		return radio.FaultDecision{Drop: msg.Kind == wire.KindConfirm && from <= 1}
	})
	run(build(NetworkConfig{Params: smallParams(3, 5), Seed: 11, Jammer: JamNone,
		Positions: clusterPositions(3), Faults: dropConfirms,
		Retry: DefaultRetryConfig(smallParams(3, 5))}))

	// The intelligent jammer on a fully compromised pool strands half-open
	// records for the session GC.
	leak := build(NetworkConfig{Params: smallParams(4, 5), Seed: 7, Jammer: JamIntelligent,
		Positions: clusterPositions(4), Retry: DefaultRetryConfig(smallParams(4, 5))})
	if err := leak.CompromiseCodes(allPoolCodes(leak)); err != nil {
		t.Fatal(err)
	}
	run(leak)
	sessionKinds := []int{wire.KindMNDPRequest, wire.KindMNDPResponse, wire.KindSessionHello, wire.KindSessionConfirm}
	// No jammer knows a session code, so frames of the four session-code
	// kinds put on the air here are never jammed: their jammed series stay
	// at 0.
	for _, k := range sessionKinds {
		msg := radio.Message{Kind: k, Code: radio.SessionCode, PayloadBits: 8}
		if err := leak.medium.Unicast(0, 1, msg); err != nil {
			t.Fatal(err)
		}
	}
	if err := leak.engine.Run(); err != nil {
		t.Fatal(err)
	}

	// A pulse jammer on a fully compromised pool jams about half of every
	// pool-code kind.
	jam := build(NetworkConfig{Params: smallParams(3, 3), Seed: 13, Jammer: JamPulse,
		Positions: clusterPositions(3)})
	if err := jam.CompromiseCodes(allPoolCodes(jam)); err != nil {
		t.Fatal(err)
	}
	run(jam)

	// Crash, silent-session reaping, restart and re-discovery.
	churn := build(NetworkConfig{Params: smallParams(3, 5), Seed: 3, Jammer: JamNone,
		Positions: clusterPositions(3), Retry: DefaultRetryConfig(smallParams(3, 5))})
	run(churn)
	if err := churn.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	if got := churn.ExpireSilentSessions(); got != 2 {
		t.Fatalf("reaped %d silent sessions, want 2", got)
	}
	if err := churn.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if err := churn.RunDiscoveryFor(0); err != nil {
		t.Fatal(err)
	}

	// Monitor-budget eviction.
	run(build(NetworkConfig{Params: smallParams(3, 4), Seed: 92, Jammer: JamNone,
		Positions: clusterPositions(3), MonitorBudget: 1}))

	// Global revocation, then the §V-D DoS flood driving local revocation.
	revoke := build(NetworkConfig{Params: smallParams(3, 4), Seed: 101, Jammer: JamNone,
		Positions: clusterPositions(3)})
	if _, err := revoke.RevokeGlobally(codepool.CodeID(0)); err != nil {
		t.Fatal(err)
	}
	p := smallParams(4, 4)
	p.Gamma = 2
	dos := build(NetworkConfig{Params: p, Seed: 21, Jammer: JamNone, Positions: clusterPositions(4)})
	if err := dos.Compromise([]int{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := dos.RunDoSAttack(3, 4); err != nil {
		t.Fatal(err)
	}

	// Monitor timeout after a node walks out of range.
	stale := build(NetworkConfig{Params: smallParams(3, 5), Seed: 41, Jammer: JamNone,
		Positions: clusterPositions(3)})
	run(stale)
	pos := stale.Positions()
	pos[2] = field.Point{X: 950, Y: 950}
	if err := stale.UpdatePositions(pos); err != nil {
		t.Fatal(err)
	}
	if got := stale.ExpireStaleNeighbors(); got != 2 {
		t.Fatalf("expired %d links, want 2", got)
	}

	snap := reg.Snapshot()
	wantCounters := map[string]uint64{
		`jrsnd_core_decode_errors_total`:               28,
		`jrsnd_core_discoveries_total{via="D-NDP"}`:    28,
		`jrsnd_core_discoveries_total{via="M-NDP"}`:    1,
		`jrsnd_core_halfopen_gc_total`:                 69,
		`jrsnd_core_handshake_retries_total`:           22,
		`jrsnd_core_invalid_reports_total`:             60,
		`jrsnd_core_jammed_total{kind="AUTH1"}`:        1,
		`jrsnd_core_jammed_total{kind="AUTH2"}`:        2,
		`jrsnd_core_jammed_total{kind="CONFIRM"}`:      244,
		`jrsnd_core_jammed_total{kind="HELLO"}`:        2,
		`jrsnd_core_jammed_total{kind="MNDP-REQ"}`:     0,
		`jrsnd_core_jammed_total{kind="MNDP-RESP"}`:    0,
		`jrsnd_core_jammed_total{kind="SESS-CONFIRM"}`: 0,
		`jrsnd_core_jammed_total{kind="SESS-HELLO"}`:   0,
		`jrsnd_core_mndp_fallbacks_total`:              2,
		`jrsnd_core_mndp_forwards_total`:               4,
		`jrsnd_core_monitor_evictions_total`:           5,
		`jrsnd_core_neighbor_expiries_total`:           4,
		`jrsnd_core_node_crashes_total`:                1,
		`jrsnd_core_node_restarts_total`:               1,
		`jrsnd_core_ratelimited_total`:                 21,
		`jrsnd_core_replays_dropped_total`:             1,
		`jrsnd_core_revocations_global_total`:          1,
		`jrsnd_core_revocations_local_total`:           12,
		`jrsnd_core_silent_expiries_total`:             2,
		`jrsnd_core_tx_total{kind="AUTH1"}`:            239,
		`jrsnd_core_tx_total{kind="AUTH2"}`:            140,
		`jrsnd_core_tx_total{kind="CONFIRM"}`:          489,
		`jrsnd_core_tx_total{kind="HELLO"}`:            266,
		`jrsnd_core_tx_total{kind="MNDP-REQ"}`:         5,
		`jrsnd_core_tx_total{kind="MNDP-RESP"}`:        5,
		`jrsnd_core_tx_total{kind="SESS-CONFIRM"}`:     3,
		`jrsnd_core_tx_total{kind="SESS-HELLO"}`:       5,
		`jrsnd_sim_events_cancelled_total`:             0,
		`jrsnd_sim_events_fired_total`:                 2077,
		`jrsnd_sim_events_scheduled_total`:             2077,
	}
	if !maps.Equal(snap.Counters, wantCounters) {
		t.Errorf("counters = %v\nwant       %v", snap.Counters, wantCounters)
	}
	neverJammed := map[string]bool{}
	for _, k := range sessionKinds {
		neverJammed[fmt.Sprintf(`jrsnd_core_jammed_total{kind="%s"}`, wire.KindName(k))] = true
	}
	for name, v := range snap.Counters {
		if v == 0 && strings.HasPrefix(name, "jrsnd_core_") && !neverJammed[name] {
			t.Errorf("%s never moved", name)
		}
	}
	wantHistograms := map[string]uint64{
		"jrsnd_core_discovery_latency_seconds": 29,
		"jrsnd_core_mndp_fanout":               4,
	}
	gotHistograms := map[string]uint64{}
	for name, h := range snap.Histograms {
		gotHistograms[name] = h.Count
	}
	if !maps.Equal(gotHistograms, wantHistograms) {
		t.Errorf("histogram counts = %v, want %v", gotHistograms, wantHistograms)
	}
}
