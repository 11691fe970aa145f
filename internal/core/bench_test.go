package core

import (
	"testing"

	"repro/internal/analysis"
)

// benchNetwork builds the benchmarks' deployment: 40 nodes placed
// uniformly on a 1200 m × 1200 m field, 12 codes per node, each code
// shared by 10 nodes, nothing compromised, reactive jammer. The seed is
// fixed, so every iteration runs the same protocol trace. Building stays
// outside the timer: a round is what the suite gates, and NewNetwork's
// allocation count still moves by a few objects in a few builds out of a
// hundred, which the exact allocs/op gate would flag.
func benchNetwork(b *testing.B) *Network {
	b.Helper()
	p := analysis.Defaults()
	p.N = 40
	p.M = 12
	p.L = 10
	p.Q = 0
	p.FieldWidth, p.FieldHeight = 1200, 1200
	net, err := NewNetwork(NetworkConfig{Params: p, Seed: 1, Jammer: JamReactive})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkDNDPRoundEventSim times one full event-driven D-NDP round.
func BenchmarkDNDPRoundEventSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := benchNetwork(b)
		b.StartTimer()
		if err := net.RunDNDP(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMNDPRoundEventSim times one event-driven M-NDP round over the
// logical neighbors an untimed D-NDP round established.
func BenchmarkMNDPRoundEventSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := benchNetwork(b)
		if err := net.RunDNDP(1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := net.RunMNDP(1); err != nil {
			b.Fatal(err)
		}
	}
}
