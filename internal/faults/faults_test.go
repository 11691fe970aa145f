package faults

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/radio"
)

func TestChannelConfigValidation(t *testing.T) {
	bad := []ChannelConfig{
		{Loss: -0.1},
		{Loss: 1.1},
		{Dup: 2},
		{Reorder: -1},
		{Reorder: 0.5}, // MaxDelay missing
	}
	for i, cfg := range bad {
		if _, err := NewChannel(cfg, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewChannel(ChannelConfig{Loss: 0.5}, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := NewChannel(ChannelConfig{}, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("fault-free channel rejected: %v", err)
	}
}

func TestChannelRatesAndDeterminism(t *testing.T) {
	cfg := ChannelConfig{Loss: 0.3, Dup: 0.2, Reorder: 0.1, MaxDelay: 0.05}
	decide := func(seed int64, n int) (drops, dups, delays int, trace []radio.FaultDecision) {
		ch, err := NewChannel(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			d := ch.Decide(0, 1, radio.Message{Kind: 1})
			trace = append(trace, d)
			if d.Drop {
				drops++
			}
			if d.Duplicate {
				dups++
			}
			if d.Delay > 0 {
				delays++
				if d.Delay > cfg.MaxDelay {
					t.Fatalf("delay %v exceeds MaxDelay %v", d.Delay, cfg.MaxDelay)
				}
			}
		}
		return
	}
	const n = 20000
	drops, dups, delays, trace1 := decide(7, n)
	near := func(got int, want float64) bool {
		return float64(got) > want*0.9 && float64(got) < want*1.1
	}
	if !near(drops, cfg.Loss*n) {
		t.Fatalf("drop rate %d/%d far from %.2f", drops, n, cfg.Loss)
	}
	// Dup and reorder only apply to delivered frames.
	delivered := float64(n - drops)
	if !near(dups, cfg.Dup*delivered) {
		t.Fatalf("dup rate %d/%.0f far from %.2f", dups, delivered, cfg.Dup)
	}
	if !near(delays, cfg.Reorder*delivered) {
		t.Fatalf("reorder rate %d/%.0f far from %.2f", delays, delivered, cfg.Reorder)
	}
	_, _, _, trace2 := decide(7, n)
	for i := range trace1 {
		if trace1[i] != trace2[i] {
			t.Fatalf("same-seed decision %d diverged: %+v vs %+v", i, trace1[i], trace2[i])
		}
	}
}

func TestChurnEventValidation(t *testing.T) {
	bad := []ChurnEvent{
		{Node: 0, CrashAt: -1},
		{Node: 0, CrashAt: 2, RestartAt: 1},
		{Node: 0, CrashAt: 1, RestartAt: 2, RediscoverAfter: -1},
	}
	for i, e := range bad {
		if e.Validate() == nil {
			t.Fatalf("event %d accepted: %+v", i, e)
		}
	}
	if err := (ChurnEvent{Node: 0, CrashAt: 1, RestartAt: 2}).Validate(); err != nil {
		t.Fatalf("valid event rejected: %v", err)
	}
	if err := (ChurnEvent{Node: 0, CrashAt: 1}).Validate(); err != nil {
		t.Fatalf("permanent failure rejected: %v", err)
	}
}

func TestRandomChurnBounds(t *testing.T) {
	if _, err := RandomChurn(5, 6, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("count > n accepted")
	}
	if _, err := RandomChurn(5, 2, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero window accepted")
	}
	plan, err := RandomChurn(10, 4, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, e := range plan {
		if err := e.Validate(); err != nil {
			t.Fatalf("generated invalid event %+v: %v", e, err)
		}
		if seen[e.Node] {
			t.Fatalf("node %d churned twice", e.Node)
		}
		seen[e.Node] = true
	}
}

// TestScheduledChurnRecoversDiscovery runs a crash/restart cycle through
// the engine mid-discovery and checks the restarted node re-discovers its
// neighborhood and the invariants hold at quiescence.
func TestScheduledChurnRecoversDiscovery(t *testing.T) {
	p := chaosParams()
	retry := core.DefaultRetryConfig(p)
	net, err := core.NewNetwork(core.NetworkConfig{
		Params:    p,
		Seed:      3,
		Jammer:    core.JamNone,
		Positions: chaosPositions(p.N),
		Retry:     retry,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := []ChurnEvent{{Node: 0, CrashAt: 0.5, RestartAt: 5, RediscoverAfter: 0.1}}
	if err := ScheduleChurn(net, plan); err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	net.ExpireStaleNeighbors()
	net.ExpireSilentSessions()
	if vs := CheckInvariants(net, retry.SessionTimeout); len(vs) != 0 {
		t.Fatalf("invariant violations after churn: %v", vs)
	}
	if len(net.Node(0).Neighbors()) == 0 {
		t.Fatal("restarted node ended with no neighbors")
	}
}

// TestInvariantCheckerFlagsViolations plants a breach and checks the
// checker reports it: symmetry is broken by a crash that wipes one side.
// The healthy baseline needs the retry GC — even a fault-free run leaks
// half-open responder records when two nodes' handshakes cross (one
// direction completes first, the other's CONFIRM is ignored).
func TestInvariantCheckerFlagsViolations(t *testing.T) {
	p := chaosParams()
	net, err := core.NewNetwork(core.NetworkConfig{
		Params:    p,
		Seed:      9,
		Jammer:    core.JamNone,
		Positions: chaosPositions(p.N),
		Retry:     core.DefaultRetryConfig(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if vs := CheckInvariants(net, 0); len(vs) != 0 {
		t.Fatalf("healthy quiesced network reported violations: %v", vs)
	}
	// Crash and instantly restart node 0: its table is empty while its
	// peers still list it — a symmetry breach the checker must flag.
	if err := net.CrashNode(0); err != nil {
		t.Fatal(err)
	}
	if err := net.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	vs := CheckInvariants(net, 0)
	if len(vs) == 0 {
		t.Fatal("planted symmetry breach not reported")
	}
	for _, v := range vs {
		if v.Invariant != "symmetry" {
			t.Fatalf("unexpected violation kind: %v", v)
		}
	}
}

// TestHalfOpenInvariantFlagsSeedLeak checks the half-open invariant fires
// on the seed engine's session leak (no retry GC) under the intelligent
// attack.
func TestHalfOpenInvariantFlagsSeedLeak(t *testing.T) {
	p := chaosParams()
	net, err := core.NewNetwork(core.NetworkConfig{
		Params:    p,
		Seed:      5,
		Jammer:    core.JamIntelligent,
		Positions: chaosPositions(p.N),
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []int
	for i := 0; i < net.NumNodes(); i++ {
		all = append(all, i)
	}
	if err := net.Compromise(all[:4]); err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range CheckInvariants(net, 0) {
		if v.Invariant == "half-open" {
			found = true
		}
	}
	if !found {
		t.Fatal("seed half-open leak not flagged")
	}
}

// TestMatrixShape checks the matrix composition: 16 base cells plus 4
// cells per Byzantine behavior, unique names, and a working filter.
func TestMatrixShape(t *testing.T) {
	cells := Matrix()
	if len(cells) != 32 {
		t.Fatalf("matrix has %d cells, want 32", len(cells))
	}
	names := map[string]bool{}
	perKind := map[adversary.Kind]int{}
	for _, c := range cells {
		if names[c.Name] {
			t.Fatalf("duplicate cell name %q", c.Name)
		}
		names[c.Name] = true
		perKind[c.Adversary]++
		if c.Adversary != adversary.None && c.Loss != 0 {
			t.Fatalf("adversary cell %q mixes channel loss in", c.Name)
		}
	}
	if perKind[adversary.None] != 16 {
		t.Fatalf("%d base cells, want 16", perKind[adversary.None])
	}
	for _, k := range adversary.Kinds {
		if perKind[k] != 4 {
			t.Fatalf("%d cells for adversary %s, want 4", perKind[k], k)
		}
		if got := MatrixFor(k); len(got) != 4 {
			t.Fatalf("MatrixFor(%s) returned %d cells, want 4", k, len(got))
		}
	}
	if got := MatrixFor(adversary.None); len(got) != 16 {
		t.Fatalf("MatrixFor(none) returned %d cells, want 16", len(got))
	}
}

// TestChaosMatrix runs the full fault matrix — the acceptance gate: at
// least 12 cells, zero invariant violations, every cell deterministic.
func TestChaosMatrix(t *testing.T) {
	cells := Matrix()
	if len(cells) < 12 {
		t.Fatalf("matrix has %d cells, want >= 12", len(cells))
	}
	results, err := RunMatrix(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Deterministic {
			t.Errorf("cell %s: non-deterministic outcome", r.Cell.Name)
		}
		for _, v := range r.Violations {
			t.Errorf("cell %s: %v", r.Cell.Name, v)
		}
		if r.Cell.Jammer == core.JamNone && r.Cell.Loss == 0 && !r.Cell.Churn && r.Discovered == 0 {
			t.Errorf("cell %s: benign cell discovered nothing", r.Cell.Name)
		}
	}
}
