package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/codepool"
	"repro/internal/field"
	"repro/internal/ibc"
	"repro/internal/sim"
)

// smallParams returns a compact deployment for protocol tests: every node
// shares every code (l = n), so discovery structure is fully controlled by
// jamming and compromise.
func smallParams(n, m int) analysis.Params {
	p := analysis.Defaults()
	p.N = n
	p.M = m
	p.L = n
	p.Q = 0
	p.FieldWidth, p.FieldHeight = 1000, 1000
	p.Range = 300
	return p
}

// clusterPositions places all n nodes within mutual range.
func clusterPositions(n int) []field.Point {
	pts := make([]field.Point, n)
	for i := range pts {
		pts[i] = field.Point{X: 100 + float64(i%5)*30, Y: 100 + float64(i/5)*30}
	}
	return pts
}

func TestDNDPTwoNodesDiscoverWithoutJamming(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(2, 5),
		Seed:      1,
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
		t.Fatal("physical neighbors with shared codes failed to discover each other")
	}
	ds := net.Discoveries()
	if len(ds) != 1 {
		t.Fatalf("got %d discoveries, want 1", len(ds))
	}
	if ds[0].Via != ViaDNDP {
		t.Fatalf("Via = %v, want D-NDP", ds[0].Via)
	}
	// Both directions authenticated with the same pairwise key.
	var key0, key1 [32]byte
	for _, nb := range net.Node(0).Neighbors() {
		key0 = nb.SessionKey
	}
	for _, nb := range net.Node(1).Neighbors() {
		key1 = nb.SessionKey
	}
	if key0 != key1 {
		t.Fatal("endpoints derived different session keys")
	}
}

func TestDNDPOutOfRangeNodesDoNotDiscover(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Params: smallParams(2, 5),
		Seed:   2,
		Jammer: JamNone,
		Positions: []field.Point{
			{X: 100, Y: 100},
			{X: 900, Y: 900}, // far beyond the 300 m range
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if len(net.Discoveries()) != 0 {
		t.Fatal("out-of-range nodes discovered each other")
	}
}

func TestDNDPFailsWhenAllCodesCompromisedUnderReactiveJamming(t *testing.T) {
	// With l = n every node holds the same code set, so compromising one
	// node compromises the entire pool and reactive jamming kills all
	// D-NDP traffic among the remaining nodes.
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(3, 5),
		Seed:      3,
		Jammer:    JamReactive,
		Positions: clusterPositions(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Compromise([]int{2}); err != nil {
		t.Fatal(err)
	}
	if net.CompromisedCodes() != net.Pool().S() {
		t.Fatalf("compromised %d codes, want the whole pool %d", net.CompromisedCodes(), net.Pool().S())
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if net.DiscoveredPair(0, 1) {
		t.Fatal("discovery succeeded although every code is jammed")
	}
}

func TestDNDPSucceedsWithOneCleanSharedCode(t *testing.T) {
	// Theorem 1 reactive bound is exact: one non-compromised shared code
	// suffices. Build two pools' worth of nodes where codes are partially
	// compromised: n=4, l=2 → w=2 subsets per round, so node pairs share
	// only some codes. Compromise node 3 and check pairs that still share
	// a clean code discover each other.
	p := smallParams(4, 8)
	p.L = 2
	net, err := NewNetwork(NetworkConfig{
		Params:    p,
		Seed:      4,
		Jammer:    JamReactive,
		Positions: clusterPositions(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Compromise([]int{3}); err != nil {
		t.Fatal(err)
	}
	compromised := map[int32]bool{}
	for _, c := range net.Pool().Codes(3) {
		compromised[int32(c)] = true
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			clean := 0
			for _, c := range net.Pool().Shared(a, b) {
				if !compromised[int32(c)] {
					clean++
				}
			}
			got := net.DiscoveredPair(a, b)
			want := clean > 0
			if got != want {
				t.Errorf("pair (%d,%d): discovered=%v, want %v (clean shared codes: %d)",
					a, b, got, want, clean)
			}
		}
	}
}

func TestRedundancyDefeatsIntelligentJammer(t *testing.T) {
	// §V-B: under the intelligent attack (HELLO passes, later messages
	// reactively jammed), a pair sharing x codes of which at least one is
	// clean succeeds *only* thanks to the all-codes redundancy design.
	// With redundancy disabled, the responder picks one random code and
	// fails whenever it picks a compromised one.
	run := func(disable bool, seed int64) (succ, total int) {
		// l = 3 so a code shared by an honest pair can have the
		// compromised node as its third holder (mixed pairs need that).
		p := smallParams(6, 10)
		p.L = 3
		net, err := NewNetwork(NetworkConfig{
			Params:            p,
			Seed:              seed,
			Jammer:            JamIntelligent,
			Positions:         clusterPositions(6),
			DisableRedundancy: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Compromise([]int{5}); err != nil {
			t.Fatal(err)
		}
		compromised := map[int32]bool{}
		for _, c := range net.Pool().Codes(5) {
			compromised[int32(c)] = true
		}
		if err := net.RunDNDP(1); err != nil {
			t.Fatal(err)
		}
		for a := 0; a < 5; a++ {
			for b := a + 1; b < 5; b++ {
				// Only count pairs with both clean and compromised shared
				// codes — the interesting mixed case.
				clean, dirty := 0, 0
				for _, c := range net.Pool().Shared(a, b) {
					if compromised[int32(c)] {
						dirty++
					} else {
						clean++
					}
				}
				if clean == 0 || dirty == 0 {
					continue
				}
				total++
				if net.DiscoveredPair(a, b) {
					succ++
				}
			}
		}
		return succ, total
	}
	var withSucc, withTotal, withoutSucc, withoutTotal int
	for seed := int64(0); seed < 40; seed++ {
		s, n := run(false, 100+seed)
		withSucc += s
		withTotal += n
		s, n = run(true, 100+seed)
		withoutSucc += s
		withoutTotal += n
	}
	if withTotal == 0 || withoutTotal == 0 {
		t.Fatal("no mixed-code pairs generated; the topology must produce them")
	}
	if withSucc != withTotal {
		t.Fatalf("with redundancy: %d/%d mixed pairs succeeded, want all", withSucc, withTotal)
	}
	// Without redundancy each of the two discovery directions picks one
	// random code, so a mixed pair with one dirty code among x shared
	// still fails with probability ≈ (d/x)². Demand real failures and a
	// strict gap to the redundant design.
	withoutRate := float64(withoutSucc) / float64(withoutTotal)
	if withoutSucc >= withoutTotal {
		t.Fatalf("without redundancy no mixed pair failed (%d/%d); the intelligent attack had no effect", withoutSucc, withoutTotal)
	}
	if withoutRate > 0.95 {
		t.Fatalf("without redundancy success rate %.3f too close to 1; expected a visible gap", withoutRate)
	}
}

func TestDNDPLatencyMatchesTheorem2(t *testing.T) {
	// With processing delays modeled, the measured mean latency over many
	// two-node runs must track Eq. (3). Use a small m to keep t_p small.
	p := smallParams(2, 10)
	var sum float64
	const runs = 60
	completed := 0
	for seed := int64(0); seed < runs; seed++ {
		net, err := NewNetwork(NetworkConfig{
			Params:                p,
			Seed:                  500 + seed,
			Jammer:                JamNone,
			Positions:             clusterPositions(2),
			ModelProcessingDelays: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Single initiator so the latency is a clean Theorem-2 sample.
		net.Engine().MustSchedule(0, func() { net.Node(0).initiateDNDP() })
		if err := net.Engine().Run(); err != nil {
			t.Fatal(err)
		}
		ds := net.Discoveries()
		if len(ds) != 1 {
			t.Fatalf("seed %d: %d discoveries", seed, len(ds))
		}
		sum += float64(ds[0].Latency)
		completed++
	}
	got := sum / float64(completed)
	want := analysis.DNDPLatency(p)
	if math.Abs(got-want) > 0.25*want {
		t.Fatalf("mean latency = %v s, Theorem 2 predicts %v s", got, want)
	}
}

func TestDNDPUnderRandomJammer(t *testing.T) {
	// Event-engine coverage for the random jammer: with a weak z the
	// discovery rate must sit between the Theorem-1 bounds (and above the
	// reactive outcome on the same seeds).
	p := smallParams(8, 8)
	p.L = 4
	p.Z = 1
	var randomSucc, reactiveSucc, edges int
	for seed := int64(0); seed < 15; seed++ {
		for _, jam := range []JammerKind{JamRandom, JamReactive} {
			net, err := NewNetwork(NetworkConfig{
				Params:    p,
				Seed:      200 + seed,
				Jammer:    jam,
				Positions: clusterPositions(8),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Compromise([]int{7}); err != nil {
				t.Fatal(err)
			}
			if err := net.RunDNDP(1); err != nil {
				t.Fatal(err)
			}
			succ := 0
			for a := 0; a < 7; a++ {
				for b := a + 1; b < 7; b++ {
					if net.DiscoveredPair(a, b) {
						succ++
					}
				}
			}
			if jam == JamRandom {
				randomSucc += succ
				edges += 21
			} else {
				reactiveSucc += succ
			}
		}
	}
	if randomSucc < reactiveSucc {
		t.Fatalf("random jamming (%d) outperformed by reactive (%d)?", randomSucc, reactiveSucc)
	}
	if randomSucc == 0 || randomSucc > edges {
		t.Fatalf("random-jammer successes %d out of range (0, %d]", randomSucc, edges)
	}
}

func TestCompromisedNodesDoNotParticipate(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(3, 5),
		Seed:      6,
		Jammer:    JamNone,
		Positions: clusterPositions(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Compromise([]int{1}); err != nil {
		t.Fatal(err)
	}
	if !net.Node(1).Compromised() {
		t.Fatal("node 1 not marked compromised")
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if net.DiscoveredPair(0, 1) || net.DiscoveredPair(1, 2) {
		t.Fatal("a compromised node completed discovery")
	}
	if !net.DiscoveredPair(0, 2) {
		t.Fatal("honest pair failed to discover")
	}
}

func TestCompromiseValidation(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(2, 3),
		Seed:      7,
		Jammer:    JamNone,
		Positions: clusterPositions(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Compromise([]int{5}); err == nil {
		t.Fatal("accepted out-of-range index")
	}
	if _, err := net.CompromiseRandom(-1); err == nil {
		t.Fatal("accepted negative q")
	}
	if _, err := net.CompromiseRandom(3); err == nil {
		t.Fatal("accepted q > n")
	}
	// Idempotent double compromise.
	if err := net.Compromise([]int{0}); err != nil {
		t.Fatal(err)
	}
	if err := net.Compromise([]int{0}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkConfigValidation(t *testing.T) {
	bad := smallParams(2, 3)
	bad.M = 0
	if _, err := NewNetwork(NetworkConfig{Params: bad, Seed: 1, Jammer: JamNone}); err == nil {
		t.Fatal("accepted invalid params")
	}
	p := smallParams(2, 3)
	if _, err := NewNetwork(NetworkConfig{Params: p, Seed: 1, Jammer: JamNone, Positions: clusterPositions(5)}); err == nil {
		t.Fatal("accepted position/count mismatch")
	}
	if _, err := NewNetwork(NetworkConfig{Params: p, Seed: 1, Jammer: JammerKind(99)}); err == nil {
		t.Fatal("accepted unknown jammer kind")
	}
}

func TestNewJammerEveryKind(t *testing.T) {
	// One constructor serves both engines: the zero kind is reactive,
	// every kind round-trips through its flag name, and every kind but
	// the sweep (which reads the simulation clock) builds without a clock,
	// as the campaign builds them.
	if JammerKind(0) != JamReactive {
		t.Fatalf("zero JammerKind is %v, want reactive", JammerKind(0))
	}
	p := smallParams(4, 5)
	compromised := codepool.NewCodeSet(20)
	clock := func() sim.Time { return 0 }
	for k := JamReactive; k <= JamSweep; k++ {
		if got, err := ParseJammerKind(k.String()); err != nil || got != k {
			t.Errorf("ParseJammerKind(%q) = %v, %v", k.String(), got, err)
		}
		if _, err := NewJammer(k, p, compromised, rand.New(rand.NewSource(1)), clock); err != nil {
			t.Errorf("%v with a clock: %v", k, err)
		}
		_, err := NewJammer(k, p, compromised, rand.New(rand.NewSource(1)), nil)
		if (err != nil) != (k == JamSweep) {
			t.Errorf("%v without a clock: err = %v", k, err)
		}
	}
	if _, err := ParseJammerKind("unknown"); err == nil {
		t.Error("ParseJammerKind accepted an unknown name")
	}
	if _, err := NewJammer(JammerKind(99), p, compromised, nil, clock); err == nil {
		t.Error("NewJammer accepted an unknown kind")
	}
}

func TestNodeAccessors(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(3, 4),
		Seed:      8,
		Jammer:    JamNone,
		Positions: clusterPositions(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", net.NumNodes())
	}
	nd := net.Node(2)
	if nd.ID() != ibc.NodeID(2) || nd.Index() != 2 {
		t.Fatal("node identity wrong")
	}
	if nd.IsLogicalNeighbor(0) {
		t.Fatal("fresh node has neighbors")
	}
	if got := len(net.Positions()); got != 3 {
		t.Fatalf("Positions len = %d", got)
	}
	if net.PhysicalGraph().AvgDegree() != 2 {
		t.Fatalf("cluster of 3 should be complete: avg degree %v", net.PhysicalGraph().AvgDegree())
	}
	if net.Params().N != 3 {
		t.Fatal("Params not propagated")
	}
	var zero sim.Time
	if net.Engine().Now() != zero {
		t.Fatal("fresh engine clock nonzero")
	}
}
