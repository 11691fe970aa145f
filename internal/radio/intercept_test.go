package radio

import (
	"testing"

	"repro/internal/sim"
)

func TestMediumInterceptorReplacesDeliveredMessage(t *testing.T) {
	adj := map[int][]int{0: {1}}
	engine := sim.NewEngine()
	m, err := NewMedium(MediumConfig{
		Engine:   engine,
		Jammer:   NoJammer{},
		Adjacent: func(n int) []int { return adj[n] },
		ChipLen:  512, ChipRate: 22e6, Mu: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetInterceptor(InterceptorFunc(func(from, to int, msg Message) Message {
		msg.Payload = []byte{0xBA, 0xD0}
		return msg
	}))
	var got []byte
	m.Attach(1, func(_ int, msg Message) { got = msg.Payload.([]byte) })
	if err := m.Broadcast(0, Message{Code: 1, PayloadBits: 10, Payload: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0xBA || got[1] != 0xD0 {
		t.Fatalf("delivered payload %x, want the interceptor's replacement", got)
	}
}

func TestMediumInterceptorSkippedWhenJammed(t *testing.T) {
	adj := map[int][]int{0: {1}}
	engine := sim.NewEngine()
	calls := 0
	m, err := NewMedium(MediumConfig{
		Engine:   engine,
		Jammer:   NewReactiveJammer(compromisedSet(5)),
		Adjacent: func(n int) []int { return adj[n] },
		ChipLen:  512, ChipRate: 22e6, Mu: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetInterceptor(InterceptorFunc(func(from, to int, msg Message) Message {
		calls++
		return msg
	}))
	m.Attach(1, func(int, Message) {})
	if err := m.Broadcast(0, Message{Code: 5, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("interceptor consulted %d times for a jammed frame, want 0", calls)
	}
}

func TestSetInterceptorArmsAfterConstruction(t *testing.T) {
	adj := map[int][]int{0: {1}}
	engine := sim.NewEngine()
	m, err := NewMedium(MediumConfig{
		Engine:   engine,
		Jammer:   NoJammer{},
		Adjacent: func(n int) []int { return adj[n] },
		ChipLen:  512, ChipRate: 22e6, Mu: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	m.Attach(1, func(int, Message) {})
	m.SetInterceptor(InterceptorFunc(func(from, to int, msg Message) Message {
		seen++
		return msg
	}))
	if err := m.Broadcast(0, Message{Code: 1, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	m.SetInterceptor(nil)
	if err := m.Broadcast(0, Message{Code: 1, PayloadBits: 10}); err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Fatalf("interceptor saw %d frames, want exactly the one sent while armed", seen)
	}
}
