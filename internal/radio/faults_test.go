package radio

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/codepool"
	"repro/internal/sim"
)

func TestPulseJammerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewPulseJammer(nil, 0.5, rng); err == nil {
		t.Fatal("accepted nil inner jammer")
	}
	if _, err := NewPulseJammer(NoJammer{}, -0.1, rng); err == nil {
		t.Fatal("accepted negative duty")
	}
	if _, err := NewPulseJammer(NoJammer{}, 1.5, rng); err == nil {
		t.Fatal("accepted duty > 1")
	}
	if _, err := NewPulseJammer(NoJammer{}, 0.5, nil); err == nil {
		t.Fatal("accepted nil rng")
	}
}

func TestPulseJammerDutyCycle(t *testing.T) {
	inner := NewReactiveJammer(compromisedSet(7))
	j, err := NewPulseJammer(inner, 0.3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	hits := 0
	for i := 0; i < trials; i++ {
		if j.TryJam(Transmission{Code: 7}) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.3) > 0.015 {
		t.Fatalf("jam rate %v on a known code, want ≈ duty 0.3", rate)
	}
	// Codes the inner jammer does not know are never hit, whatever the phase.
	for i := 0; i < 1000; i++ {
		if j.TryJam(Transmission{Code: 9}) {
			t.Fatal("pulse jammer hit a code the inner jammer does not know")
		}
	}
}

func TestPulseJammerDeterministicSameSeed(t *testing.T) {
	run := func() []bool {
		j, err := NewPulseJammer(NewReactiveJammer(compromisedSet(1, 2)), 0.5, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 100)
		for i := range out {
			out[i] = j.TryJam(Transmission{Code: codepool.CodeID(i % 3)})
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged between same-seed runs", i)
		}
	}
}

func TestSweepJammerValidation(t *testing.T) {
	cs := compromisedSet(1)
	clock := func() sim.Time { return 0 }
	if _, err := NewSweepJammer(cs, 0, 1, clock); err == nil {
		t.Fatal("accepted window 0")
	}
	if _, err := NewSweepJammer(cs, 1, 0, clock); err == nil {
		t.Fatal("accepted epoch 0")
	}
	if _, err := NewSweepJammer(cs, 1, 1, nil); err == nil {
		t.Fatal("accepted nil clock")
	}
}

func TestSweepJammerRotatesWindowPerEpoch(t *testing.T) {
	// Compromised ranks: code 10→0, 20→1, 30→2, 40→3. Window 2, epoch 1 s.
	cs := compromisedSet(10, 20, 30, 40)
	now := sim.Time(0)
	j, err := NewSweepJammer(cs, 2, 1, func() sim.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	jams := func(c codepool.CodeID) bool { return j.TryJam(Transmission{Code: c}) }
	// Epoch 0 targets ranks {0, 1} = codes {10, 20}.
	if !jams(10) || !jams(20) || jams(30) || jams(40) {
		t.Fatal("epoch 0 window wrong")
	}
	// Epoch 1 targets ranks {2, 3} = codes {30, 40}.
	now = 1.5
	if jams(10) || jams(20) || !jams(30) || !jams(40) {
		t.Fatal("epoch 1 window wrong")
	}
	// Epoch 2 wraps back to ranks {0, 1}.
	now = 2.1
	if !jams(10) || !jams(20) || jams(30) || jams(40) {
		t.Fatal("epoch 2 window did not wrap")
	}
	// Codes outside the compromised set are always safe; unknown session
	// codes too.
	if jams(999) || jams(SessionCode) {
		t.Fatal("sweep jammer hit an unknown code")
	}
}

func TestSweepJammerSaturatesWhenWindowCoversSet(t *testing.T) {
	cs := compromisedSet(3, 4)
	j, err := NewSweepJammer(cs, 5, 1, func() sim.Time { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !j.TryJam(Transmission{Code: 3}) || !j.TryJam(Transmission{Code: 4}) {
		t.Fatal("saturated sweep jammer missed a known code")
	}
}

func TestCodeSetRank(t *testing.T) {
	cs := compromisedSet(5, 70, 200)
	for i, want := range map[codepool.CodeID]int{5: 0, 70: 1, 200: 2} {
		if got := cs.Rank(i); got != want {
			t.Fatalf("Rank(%d) = %d, want %d", i, got, want)
		}
	}
	if got := cs.Rank(6); got != -1 {
		t.Fatalf("Rank(non-member) = %d, want -1", got)
	}
}

func TestMediumFaultDrop(t *testing.T) {
	adj := map[int][]int{0: {1}}
	engine := sim.NewEngine()
	drop := true
	m, err := NewMedium(MediumConfig{
		Engine:   engine,
		Jammer:   NoJammer{},
		Adjacent: func(n int) []int { return adj[n] },
		ChipLen:  512, ChipRate: 22e6, Mu: 1,
		Faults: InjectorFunc(func(from, to int, msg Message) FaultDecision {
			return FaultDecision{Drop: drop}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	m.Attach(1, func(int, Message) { count++ })
	if err := m.Broadcast(0, Message{Code: 1, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	drop = false
	if err := m.Broadcast(0, Message{Code: 1, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("delivered %d, want 1 (first frame lost)", count)
	}
	s := m.Stats()
	if s.Lost != 1 || s.Delivered != 1 || s.Transmissions != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMediumFaultDuplicate(t *testing.T) {
	adj := map[int][]int{0: {1}}
	engine := sim.NewEngine()
	m, err := NewMedium(MediumConfig{
		Engine:   engine,
		Jammer:   NoJammer{},
		Adjacent: func(n int) []int { return adj[n] },
		ChipLen:  512, ChipRate: 22e6, Mu: 1,
		Faults: InjectorFunc(func(from, to int, msg Message) FaultDecision {
			return FaultDecision{Duplicate: true}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	m.Attach(1, func(int, Message) { count++ })
	if err := m.Broadcast(0, Message{Code: 1, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("delivered %d copies, want 2", count)
	}
	if s := m.Stats(); s.Duplicated != 1 || s.Delivered != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMediumFaultReorder(t *testing.T) {
	// Two frames sent back-to-back; the first gets a large extra delay, so
	// the second overtakes it.
	adj := map[int][]int{0: {1}}
	engine := sim.NewEngine()
	sent := 0
	m, err := NewMedium(MediumConfig{
		Engine:   engine,
		Jammer:   NoJammer{},
		Adjacent: func(n int) []int { return adj[n] },
		ChipLen:  512, ChipRate: 22e6, Mu: 1,
		Faults: InjectorFunc(func(from, to int, msg Message) FaultDecision {
			sent++
			if sent == 1 {
				return FaultDecision{Delay: 1}
			}
			return FaultDecision{}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	m.Attach(1, func(_ int, msg Message) { order = append(order, msg.Kind) })
	if err := m.Broadcast(0, Message{Kind: 1, Code: 1, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(0, Message{Kind: 2, Code: 1, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("delivery order = %v, want [2 1]", order)
	}
	if s := m.Stats(); s.Delayed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMediumFaultsNotConsultedWhenJammed(t *testing.T) {
	adj := map[int][]int{0: {1}}
	engine := sim.NewEngine()
	calls := 0
	m, err := NewMedium(MediumConfig{
		Engine:   engine,
		Jammer:   NewReactiveJammer(compromisedSet(5)),
		Adjacent: func(n int) []int { return adj[n] },
		ChipLen:  512, ChipRate: 22e6, Mu: 1,
		Faults: InjectorFunc(func(from, to int, msg Message) FaultDecision {
			calls++
			return FaultDecision{}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Attach(1, func(int, Message) {})
	if err := m.Broadcast(0, Message{Code: 5, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("injector consulted %d times for a jammed frame, want 0", calls)
	}
}
