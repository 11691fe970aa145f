package radio

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/codepool"
	"repro/internal/sim"
)

func compromisedSet(ids ...codepool.CodeID) *codepool.CodeSet {
	s := codepool.NewCodeSet(1000)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func TestNoJammer(t *testing.T) {
	j := NoJammer{}
	if j.TryJam(Transmission{Code: 3}) {
		t.Fatal("NoJammer jammed")
	}
}

func TestReactiveJammerExactlyCompromisedCodes(t *testing.T) {
	j := NewReactiveJammer(compromisedSet(1, 2, 3))
	if !j.TryJam(Transmission{Code: 2}) {
		t.Fatal("reactive jammer missed a compromised code")
	}
	if j.TryJam(Transmission{Code: 9}) {
		t.Fatal("reactive jammer hit a non-compromised code")
	}
	if j.TryJam(Transmission{Code: SessionCode}) {
		t.Fatal("reactive jammer hit an unknown session code")
	}
}

func TestRandomJammerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cs := compromisedSet(1)
	if _, err := NewRandomJammer(-1, 1, cs, rng); err == nil {
		t.Fatal("accepted z<0")
	}
	if _, err := NewRandomJammer(1, 0, cs, rng); err == nil {
		t.Fatal("accepted μ=0")
	}
	if _, err := NewRandomJammer(1, 1, cs, nil); err == nil {
		t.Fatal("accepted nil rng")
	}
}

func TestRandomJammerHitRateMatchesBeta(t *testing.T) {
	// c = 100 compromised codes, z = 10, μ = 1 → tries = 20, β = 0.2.
	ids := make([]codepool.CodeID, 100)
	for i := range ids {
		ids[i] = codepool.CodeID(i)
	}
	cs := compromisedSet(ids...)
	j, err := NewRandomJammer(10, 1, cs, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if j.Tries() != 20 {
		t.Fatalf("Tries = %d, want 20", j.Tries())
	}
	const trials = 20000
	hits := 0
	for i := 0; i < trials; i++ {
		if j.TryJam(Transmission{Code: 7}) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.2) > 0.015 {
		t.Fatalf("hit rate = %v, want ≈ β = 0.2", rate)
	}
	// Non-compromised codes and session codes are never hit.
	for i := 0; i < 100; i++ {
		if j.TryJam(Transmission{Code: 999}) {
			t.Fatal("random jammer hit a non-compromised code")
		}
		if j.TryJam(Transmission{Code: SessionCode}) {
			t.Fatal("random jammer hit a session code")
		}
	}
}

func TestRandomJammerSaturates(t *testing.T) {
	// tries >= c → every compromised transmission is jammed.
	cs := compromisedSet(1, 2, 3)
	j, err := NewRandomJammer(10, 1, cs, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !j.TryJam(Transmission{Code: 2}) {
			t.Fatal("saturated random jammer missed")
		}
	}
}

func TestRandomJammerEmptyKnowledge(t *testing.T) {
	j, err := NewRandomJammer(10, 1, codepool.NewCodeSet(10), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if j.TryJam(Transmission{Code: 1}) {
		t.Fatal("jammer with no knowledge jammed")
	}
}

func newTestMedium(t *testing.T, jammer Jammer, adj map[int][]int) (*Medium, *sim.Engine) {
	t.Helper()
	engine := sim.NewEngine()
	m, err := NewMedium(MediumConfig{
		Engine:   engine,
		Jammer:   jammer,
		Adjacent: func(n int) []int { return adj[n] },
		ChipLen:  512,
		ChipRate: 22e6,
		Mu:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, engine
}

func TestMediumValidation(t *testing.T) {
	engine := sim.NewEngine()
	adj := func(int) []int { return nil }
	bad := []MediumConfig{
		{Jammer: NoJammer{}, Adjacent: adj, ChipLen: 1, ChipRate: 1, Mu: 1},
		{Engine: engine, Adjacent: adj, ChipLen: 1, ChipRate: 1, Mu: 1},
		{Engine: engine, Jammer: NoJammer{}, ChipLen: 1, ChipRate: 1, Mu: 1},
		{Engine: engine, Jammer: NoJammer{}, Adjacent: adj, ChipLen: 0, ChipRate: 1, Mu: 1},
		{Engine: engine, Jammer: NoJammer{}, Adjacent: adj, ChipLen: 1, ChipRate: 0, Mu: 1},
		{Engine: engine, Jammer: NoJammer{}, Adjacent: adj, ChipLen: 1, ChipRate: 1, Mu: 0},
	}
	for i, cfg := range bad {
		if _, err := NewMedium(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestBroadcastReachesNeighborsAfterAirtime(t *testing.T) {
	adj := map[int][]int{0: {1, 2}, 1: {0}, 2: {0}}
	m, engine := newTestMedium(t, NoJammer{}, adj)
	type rx struct {
		node int
		at   sim.Time
		msg  Message
	}
	var got []rx
	for _, node := range []int{1, 2, 3} {
		node := node
		m.Attach(node, func(from int, msg Message) {
			got = append(got, rx{node: node, at: engine.Now(), msg: msg})
		})
	}
	msg := Message{Kind: 1, Code: 5, PayloadBits: 21}
	if err := m.Broadcast(0, msg); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("delivered to %d nodes, want 2 (node 3 is out of range)", len(got))
	}
	wantAir := sim.Time(2 * 21 * 512 / 22e6)
	for _, r := range got {
		if math.Abs(float64(r.at-wantAir)) > 1e-12 {
			t.Fatalf("delivery at %v, want %v", r.at, wantAir)
		}
		if r.msg.Kind != 1 || r.msg.Code != 5 {
			t.Fatalf("message corrupted in flight: %+v", r.msg)
		}
	}
	s := m.Stats()
	if s.Transmissions != 1 || s.Jammed != 0 || s.Delivered != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestUnicastOnlyTargets(t *testing.T) {
	adj := map[int][]int{0: {1, 2}}
	m, engine := newTestMedium(t, NoJammer{}, adj)
	var delivered []int
	for _, node := range []int{1, 2} {
		node := node
		m.Attach(node, func(int, Message) { delivered = append(delivered, node) })
	}
	if err := m.Unicast(0, 2, Message{Kind: 1, Code: 5, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 1 || delivered[0] != 2 {
		t.Fatalf("delivered = %v, want [2]", delivered)
	}
	if err := m.Unicast(0, -5, Message{PayloadBits: 1}); err == nil {
		t.Fatal("accepted negative unicast target")
	}
}

func TestJammedTransmissionDropped(t *testing.T) {
	adj := map[int][]int{0: {1}}
	m, engine := newTestMedium(t, NewReactiveJammer(compromisedSet(5)), adj)
	count := 0
	m.Attach(1, func(int, Message) { count++ })
	// Compromised code 5 → jammed; code 6 → delivered.
	if err := m.Broadcast(0, Message{Code: 5, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(0, Message{Code: 6, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("delivered %d messages, want 1", count)
	}
	s := m.Stats()
	if s.Transmissions != 2 || s.Jammed != 1 || s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestObserverSeesEveryTransmission(t *testing.T) {
	adj := map[int][]int{0: {1}}
	engine := sim.NewEngine()
	type obs struct {
		from, to int
		jammed   bool
		kind     int
	}
	var seen []obs
	m, err := NewMedium(MediumConfig{
		Engine:   engine,
		Jammer:   NewReactiveJammer(compromisedSet(5)),
		Adjacent: func(n int) []int { return adj[n] },
		ChipLen:  512,
		ChipRate: 22e6,
		Mu:       1,
		Observer: func(from, to int, msg Message, jammed bool) {
			seen = append(seen, obs{from: from, to: to, jammed: jammed, kind: msg.Kind})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(0, Message{Kind: 1, Code: 5, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.Unicast(0, 1, Message{Kind: 2, Code: 6, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("observer saw %d transmissions, want 2", len(seen))
	}
	if !seen[0].jammed || seen[0].to != -1 || seen[0].kind != 1 {
		t.Fatalf("first observation wrong: %+v", seen[0])
	}
	if seen[1].jammed || seen[1].to != 1 || seen[1].kind != 2 {
		t.Fatalf("second observation wrong: %+v", seen[1])
	}
}

func TestBroadcastRejectsEmptyPayload(t *testing.T) {
	m, _ := newTestMedium(t, NoJammer{}, map[int][]int{})
	if err := m.Broadcast(0, Message{PayloadBits: 0}); err == nil {
		t.Fatal("accepted zero payload bits")
	}
}
