package jrsnd_test

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"
	"strings"

	jrsnd "repro"
	"repro/internal/field"
)

// A 40-node MANET under reactive jamming with two compromised nodes runs
// one D-NDP round and one M-NDP round; the measured discovery rate is then
// compared with the paper's theory (Theorems 1 and 3).
func Example_quickstart() {
	params := jrsnd.DefaultParams()
	params.N = 40 // nodes
	params.M = 12 // codes per node
	params.L = 10 // nodes sharing each code
	params.Q = 2  // compromised nodes
	params.Nu = 2 // M-NDP hop bound
	params.FieldWidth, params.FieldHeight = 1200, 1200
	params.Range = 300

	net, err := jrsnd.New(jrsnd.NetworkConfig{
		Params: params,
		Seed:   42,
		Jammer: jrsnd.JamReactive,
	})
	if err != nil {
		log.Fatal(err)
	}
	compromised, err := net.CompromiseRandom(params.Q)
	if err != nil {
		log.Fatal(err)
	}
	g := net.PhysicalGraph()
	fmt.Printf("deployment: %d nodes, %d physical links, avg degree %.1f\n",
		net.NumNodes(), g.NumEdges(), g.AvgDegree())
	fmt.Printf("adversary:  compromised nodes %v → %d of %d pool codes known to the jammer\n",
		compromised, net.CompromisedCodes(), net.Pool().S())

	if err := net.RunDNDP(1); err != nil {
		log.Fatal(err)
	}
	dndp := len(net.Discoveries())
	fmt.Printf("after D-NDP: %d pairs mutually discovered and authenticated\n", dndp)
	if err := net.RunMNDP(1); err != nil {
		log.Fatal(err)
	}
	all := len(net.Discoveries())
	fmt.Printf("after M-NDP: %d pairs total (%d added via multi-hop)\n", all, all-dndp)

	// Discoverable links are the physical edges between honest nodes.
	captured := map[int]bool{}
	for _, c := range compromised {
		captured[c] = true
	}
	edges, discovered := 0, 0
	for u := 0; u < net.NumNodes(); u++ {
		for _, v := range g.Adj[u] {
			if v <= u || captured[u] || captured[v] {
				continue
			}
			edges++
			if net.DiscoveredPair(u, v) {
				discovered++
			}
		}
	}
	lower, upper := jrsnd.DNDPBounds(params)
	fmt.Printf("discovery probability over honest physical links: %.3f (%d/%d)\n",
		float64(discovered)/float64(edges), discovered, edges)
	fmt.Printf("theory: D-NDP alone in [%.3f, %.3f]; with M-NDP the paper predicts near-1\n", lower, upper)

	fmt.Println("neighbor table of node 0:")
	table := net.Node(0).Neighbors()
	sort.Slice(table, func(i, j int) bool { return table[i].ID < table[j].ID })
	for _, nb := range table {
		fmt.Printf("  peer %-4d via %-6s at t=%.3fs\n", nb.ID, nb.Via, float64(nb.DiscoveredAt))
	}
	// Output:
	// deployment: 40 nodes, 111 physical links, avg degree 5.5
	// adversary:  compromised nodes [29 34] → 22 of 48 pool codes known to the jammer
	// after D-NDP: 83 pairs mutually discovered and authenticated
	// after M-NDP: 97 pairs total (14 added via multi-hop)
	// discovery probability over honest physical links: 0.980 (97/99)
	// theory: D-NDP alone in [0.809, 0.809]; with M-NDP the paper predicts near-1
	// neighbor table of node 0:
	//   peer 7    via D-NDP  at t=0.995s
	//   peer 8    via D-NDP  at t=0.214s
	//   peer 12   via D-NDP  at t=0.459s
	//   peer 28   via D-NDP  at t=0.232s
}

// The deployment the paper's introduction motivates: a single-authority
// military MANET of platoons moving through a hostile area under reactive
// jamming. Nodes re-run neighbor discovery every epoch as mobility creates
// new encounters; each epoch reports how many of the current physical links
// are secured (discovered and mutually authenticated).
func Example_battlefield() {
	const (
		platoons   = 3
		perPlatoon = 16
		radius     = 180.0 // m, spread of a platoon around its center
	)
	params := jrsnd.DefaultParams()
	params.N = platoons * perPlatoon
	params.M = 8
	params.L = 12
	params.Q = 4
	params.Nu = 3
	params.FieldWidth, params.FieldHeight = 3000, 3000
	params.Range = 300

	deploy, err := field.New(params.FieldWidth, params.FieldHeight)
	if err != nil {
		log.Fatal(err)
	}
	// Scatter the platoon centers, then each platoon's soldiers uniformly
	// over a disc around its center.
	layout := rand.New(rand.NewSource(7))
	positions := make([]field.Point, 0, params.N)
	for p := 0; p < platoons; p++ {
		center := deploy.RandomPoint(layout)
		for i := 0; i < perPlatoon; i++ {
			ang := layout.Float64() * 2 * math.Pi
			r := radius * math.Sqrt(layout.Float64())
			positions = append(positions, deploy.Clamp(field.Point{
				X: center.X + r*math.Cos(ang),
				Y: center.Y + r*math.Sin(ang),
			}))
		}
	}

	net, err := jrsnd.New(jrsnd.NetworkConfig{
		Params:    params,
		Seed:      7,
		Jammer:    jrsnd.JamReactive,
		Positions: positions,
		GPSFilter: true, // eliminate M-NDP false positives (§V-C)
	})
	if err != nil {
		log.Fatal(err)
	}
	compromised, err := net.CompromiseRandom(params.Q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("battlefield: %d platoons × %d soldiers on %.0fx%.0f m², jammer holds %d/%d codes (nodes %v captured)\n",
		platoons, perPlatoon, params.FieldWidth, params.FieldHeight, net.CompromisedCodes(), net.Pool().S(), compromised)

	// Soldiers move at 1-3 m/s with short pauses (random waypoint).
	mob, err := field.NewWaypoint(field.WaypointConfig{
		Field:    deploy,
		MinSpeed: 1,
		MaxSpeed: 3,
		Pause:    5,
		Rand:     rand.New(rand.NewSource(99)),
	}, positions)
	if err != nil {
		log.Fatal(err)
	}
	// Each epoch steps mobility one minute, expires monitor-timed-out
	// sessions (§IV-A) and re-runs both discovery protocols.
	stats, err := net.RunEpochs(jrsnd.EpochConfig{
		Mobility:    mob,
		StepSeconds: 60,
		Epochs:      3,
		Window:      1,
		MNDP:        true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("epoch  physical-links  secured  coverage  expired  new-this-epoch")
	for _, s := range stats {
		fmt.Printf("%-5d  %-14d  %-7d  %6.1f%%  %-7d  %d\n",
			s.Epoch, s.PhysicalLinks, s.SecuredLinks, 100*s.Coverage(), s.Expired, s.NewDiscoveries)
	}
	// Output:
	// battlefield: 3 platoons × 16 soldiers on 3000x3000 m², jammer holds 23/32 codes (nodes [11 14 37 5] captured)
	// epoch  physical-links  secured  coverage  expired  new-this-epoch
	// 0      295             281        95.3%  0        281
	// 1      255             244        95.7%  41       4
	// 2      182             178        97.8%  74       8
}

// The high-mobility case of the paper's introduction: "nodes may encounter
// for only a short while due to high mobility. This requires neighbor
// discovery to be done in a very short time, say a few seconds." A vehicle
// column drives past a static picket line of sensors; each picket is within
// range of a passing vehicle for only a brief contact window, and discovery
// must fit inside it.
func Example_convoy() {
	const (
		vehicles = 8
		pickets  = 6
		speed    = 15.0 // m/s, a fast column
		epoch    = 10.0 // s between discovery rounds
	)
	params := jrsnd.DefaultParams()
	params.N = vehicles + pickets
	params.M = 10
	params.L = params.N // single unit: everyone shares codes
	params.Q = 0
	params.FieldWidth, params.FieldHeight = 6000, 1000
	params.Range = 300

	// The column starts at the west edge, 120 m between vehicles, driving
	// east along y=500; pickets sit along the road every 800 m.
	positions := make([]field.Point, 0, params.N)
	for i := 0; i < vehicles; i++ {
		positions = append(positions, field.Point{X: 100 + float64(i)*120, Y: 500})
	}
	for i := 0; i < pickets; i++ {
		positions = append(positions, field.Point{X: 1200 + float64(i)*800, Y: 560})
	}

	net, err := jrsnd.New(jrsnd.NetworkConfig{
		Params:    params,
		Seed:      3,
		Jammer:    jrsnd.JamReactive, // jammer present but holds no codes (q=0)
		Positions: positions,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A picket 60 m off the road with a 300 m range sees a chord of
	// 2·√(300²−60²) ≈ 588 m, ≈ 39 s at 15 m/s; Theorem 2 puts discovery
	// far inside that.
	fmt.Printf("convoy: %d vehicles at %.0f m/s past %d pickets; contact window ≈ 39 s, T̄_D = %.2f s\n",
		vehicles, speed, pickets, jrsnd.DNDPLatency(params))
	fmt.Println("t(s)   convoy-head(m)  picket-contacts  secured  cumulative-pairs")
	for step := 0; step <= 24; step++ {
		if step > 0 {
			for i := 0; i < vehicles; i++ {
				positions[i].X = math.Min(positions[i].X+speed*epoch, params.FieldWidth)
			}
			if err := net.UpdatePositions(positions); err != nil {
				log.Fatal(err)
			}
			net.ExpireStaleNeighbors()
		}
		if err := net.RunDNDP(1); err != nil {
			log.Fatal(err)
		}
		// Count the current vehicle↔picket physical links and how many of
		// them are secured.
		contacts, secured := 0, 0
		g := net.PhysicalGraph()
		for u := 0; u < vehicles; u++ {
			for _, v := range g.Adj[u] {
				if v >= vehicles {
					contacts++
					if net.DiscoveredPair(u, v) {
						secured++
					}
				}
			}
		}
		if step%3 == 0 {
			fmt.Printf("%-5.0f  %-14.0f  %-15d  %-7d  %d\n",
				float64(step)*epoch, positions[vehicles-1].X, contacts, secured, len(net.Discoveries()))
		}
	}
	// Output:
	// convoy: 8 vehicles at 15 m/s past 6 pickets; contact window ≈ 39 s, T̄_D = 0.06 s
	// t(s)   convoy-head(m)  picket-contacts  secured  cumulative-pairs
	// 0      940             1                1        14
	// 30     1390            5                5        18
	// 60     1840            7                7        23
	// 90     2290            6                6        26
	// 120    2740            6                6        31
	// 150    3190            5                5        35
	// 180    3640            6                6        40
	// 210    4090            5                5        44
	// 240    4540            6                6        49
}

// The §V-D DoS attack: a captured node floods its neighborhood with fake
// authentication messages under compromised spread codes, trying to burn
// the victims' CPU on key computations and MAC verifications. The same
// attack runs against an undefended network and against one using the
// local revocation counters, and the (l−1)·(γ+1)·m work bound holds.
func Example_dosAttack() {
	const (
		nodes  = 16
		rounds = 40
		gamma  = 5
	)
	attack := func(gamma int) (jrsnd.DoSReport, jrsnd.Params) {
		params := jrsnd.DefaultParams()
		params.N = nodes
		params.M = 6
		params.L = nodes // dense sharing: every victim holds the attacker's codes
		params.Q = 0
		params.Gamma = gamma
		params.FieldWidth, params.FieldHeight = 1000, 1000
		// Everyone is within range of the attacker.
		positions := make([]field.Point, nodes)
		for i := range positions {
			positions[i] = field.Point{X: 300 + float64(i%4)*60, Y: 300 + float64(i/4)*60}
		}
		net, err := jrsnd.New(jrsnd.NetworkConfig{
			Params:    params,
			Seed:      5,
			Jammer:    jrsnd.JamNone,
			Positions: positions,
		})
		if err != nil {
			log.Fatal(err)
		}
		attacker := nodes - 1
		if err := net.Compromise([]int{attacker}); err != nil {
			log.Fatal(err)
		}
		report, err := net.RunDoSAttack(attacker, rounds)
		if err != nil {
			log.Fatal(err)
		}
		return report, params
	}

	fmt.Printf("DoS attack: 1 captured node, %d injection waves against %d neighbors\n", rounds, nodes-1)
	fmt.Println("defence        injected  key-comps  mac-verifies  revoked-codes")
	undefended, _ := attack(1 << 20)
	defended, params := attack(gamma)
	for _, row := range []struct {
		label  string
		report jrsnd.DoSReport
	}{
		{"none (γ=∞)", undefended},
		{fmt.Sprintf("γ=%d", gamma), defended},
	} {
		r := row.report
		fmt.Printf("%-13s  %-8d  %-9d  %-12d  %d\n",
			row.label, r.Injected, r.KeyComputations, r.MACVerifications, r.RevokedCodes)
	}
	// A victim revokes a code once its counter exceeds γ, so each
	// compromised code burns at most γ+1 verifications per victim.
	bound := (params.L - 1) * (gamma + 1) * params.M
	fmt.Printf("bound (l−1)·(γ+1)·m = %d ≥ measured %d: %v\n",
		bound, defended.MACVerifications, defended.MACVerifications <= bound)
	fmt.Printf("revocation eliminated %.0f%% of the forced verification work\n",
		100*(1-float64(defended.MACVerifications)/float64(undefended.MACVerifications)))
	// Output:
	// DoS attack: 1 captured node, 40 injection waves against 15 neighbors
	// defence        injected  key-comps  mac-verifies  revoked-codes
	// none (γ=∞)     3600      3600       3600          0
	// γ=5            3600      540        540           90
	// bound (l−1)·(γ+1)·m = 540 ≥ measured 540: true
	// revocation eliminated 85% of the forced verification work
}

// Two small instrumented deployments under reactive jamming have their
// metric snapshots merged — counters and histograms sum, gauges keep the
// high-water mark — and written in the Prometheus text format, the same
// aggregation jrsnd-report -metrics applies across campaign directories.
// Only the discovery counters and the latency summary are printed: the
// full dump includes a gauge that reads the wall clock.
func Example_metricsDump() {
	params := jrsnd.DefaultParams()
	params.N, params.M, params.L, params.Q = 30, 10, 5, 3
	params.FieldWidth, params.FieldHeight = 700, 700

	merged := jrsnd.MetricsSnapshot{}
	for _, seed := range []int64{1, 2} {
		reg := jrsnd.NewMetricsRegistry()
		net, err := jrsnd.New(jrsnd.NetworkConfig{
			Params:  params,
			Seed:    seed,
			Jammer:  jrsnd.JamReactive,
			Metrics: reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := net.CompromiseRandom(params.Q); err != nil {
			log.Fatal(err)
		}
		if err := net.RunDNDP(1); err != nil {
			log.Fatal(err)
		}
		if err := net.RunMNDP(1); err != nil {
			log.Fatal(err)
		}
		if err := merged.Merge(reg.Snapshot()); err != nil {
			log.Fatal(err)
		}
	}

	var prom bytes.Buffer
	if err := jrsnd.WriteMetricsPrometheus(&prom, merged); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "jrsnd_core_discoveries_total") {
			fmt.Println(line)
		}
	}
	lat := merged.Histograms["jrsnd_core_discovery_latency_seconds"]
	fmt.Printf("%d discoveries across both runs; latency p50 %.3fs, p95 %.3fs\n",
		lat.Count, lat.Quantile(0.5), lat.Quantile(0.95))
	// Output:
	// jrsnd_core_discoveries_total{via="D-NDP"} 145
	// jrsnd_core_discoveries_total{via="M-NDP"} 87
	// 232 discoveries across both runs; latency p50 0.052s, p95 0.233s
}
