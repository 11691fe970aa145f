package field

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func mustField(t *testing.T, w, h float64) Field {
	t.Helper()
	f, err := New(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewRejectsBadDimensions(t *testing.T) {
	for _, dims := range [][2]float64{{0, 10}, {10, 0}, {-5, 10}} {
		if _, err := New(dims[0], dims[1]); err == nil {
			t.Errorf("New(%v, %v) accepted invalid dimensions", dims[0], dims[1])
		}
	}
}

func TestRandomPointInside(t *testing.T) {
	f := mustField(t, 5000, 5000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if p := f.RandomPoint(rng); !f.Contains(p) {
			t.Fatalf("RandomPoint produced %v outside the field", p)
		}
	}
}

func TestClamp(t *testing.T) {
	f := mustField(t, 100, 50)
	got := f.Clamp(Point{X: -3, Y: 70})
	if got != (Point{X: 0, Y: 50}) {
		t.Fatalf("Clamp = %v, want {0 50}", got)
	}
}

func TestDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	f := mustField(t, 1000, 1000)
	rng := rand.New(rand.NewSource(2))
	pts := f.PlaceUniform(rng, 300)
	const r = 120.0
	grid, err := NewGrid(f, pts, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		got := map[int]bool{}
		for _, j := range grid.WithinRange(nil, i) {
			got[j] = true
		}
		for j := range pts {
			want := i != j && pts[i].Dist(pts[j]) <= r
			if got[j] != want {
				t.Fatalf("node %d vs %d: grid=%v brute=%v", i, j, got[j], want)
			}
		}
	}
}

func TestGridRejectsBadRadius(t *testing.T) {
	f := mustField(t, 10, 10)
	if _, err := NewGrid(f, nil, 0); err == nil {
		t.Fatal("NewGrid accepted zero radius")
	}
}

func TestPhysicalGraphSymmetricAndIrreflexive(t *testing.T) {
	f := mustField(t, 2000, 2000)
	rng := rand.New(rand.NewSource(3))
	pts := f.PlaceUniform(rng, 200)
	g, err := PhysicalGraph(f, pts, 300)
	if err != nil {
		t.Fatal(err)
	}
	adjSet := make([]map[int]bool, len(pts))
	for i, nbrs := range g.Adj {
		adjSet[i] = map[int]bool{}
		for _, j := range nbrs {
			if j == i {
				t.Fatalf("node %d adjacent to itself", i)
			}
			adjSet[i][j] = true
		}
	}
	for i := range pts {
		for j := range adjSet[i] {
			if !adjSet[j][i] {
				t.Fatalf("edge %d→%d not symmetric", i, j)
			}
		}
	}
}

func TestAvgDegreeMatchesDensity(t *testing.T) {
	// Expected degree ≈ n·π·r²/Area away from boundary effects; with
	// r=300 on 5000×5000 and n=2000 the paper's g ≈ 20-23.
	f := mustField(t, 5000, 5000)
	rng := rand.New(rand.NewSource(4))
	pts := f.PlaceUniform(rng, 2000)
	g, err := PhysicalGraph(f, pts, 300)
	if err != nil {
		t.Fatal(err)
	}
	got := g.AvgDegree()
	ideal := 2000 * math.Pi * 300 * 300 / (5000 * 5000) // ≈ 22.6 without border effects
	if got < ideal*0.80 || got > ideal*1.02 {
		t.Fatalf("AvgDegree = %v, want within [%.1f, %.1f]", got, ideal*0.80, ideal*1.02)
	}
}

func TestHopDistanceSmallGraph(t *testing.T) {
	// Path graph 0-1-2-3-4 plus a chord 0-4.
	g := &Graph{Adj: [][]int{
		{1, 4}, {0, 2}, {1, 3}, {2, 4}, {3, 0},
	}}
	if h, ok := g.HopDistance(0, 2, 2, false); !ok || h != 2 {
		t.Fatalf("HopDistance(0,2) = %d,%v, want 2,true", h, ok)
	}
	if h, ok := g.HopDistance(0, 4, 5, false); !ok || h != 1 {
		t.Fatalf("HopDistance(0,4) = %d,%v, want 1,true", h, ok)
	}
	// Excluding the direct edge, 0→4 goes through 1-2-3.
	if h, ok := g.HopDistance(0, 4, 5, true); !ok || h != 4 {
		t.Fatalf("HopDistance(0,4, excludeDirect) = %d,%v, want 4,true", h, ok)
	}
	if _, ok := g.HopDistance(0, 4, 3, true); ok {
		t.Fatal("HopDistance found a path beyond the hop cap")
	}
	if h, ok := g.HopDistance(2, 2, 1, false); !ok || h != 0 {
		t.Fatalf("HopDistance(self) = %d,%v, want 0,true", h, ok)
	}
}

func TestHopDistanceUnreachable(t *testing.T) {
	g := &Graph{Adj: [][]int{{1}, {0}, {}}}
	if _, ok := g.HopDistance(0, 2, 10, false); ok {
		t.Fatal("found a path to a disconnected node")
	}
}

func TestWaypointStaysInFieldAndMoves(t *testing.T) {
	f := mustField(t, 1000, 1000)
	rng := rand.New(rand.NewSource(5))
	initial := f.PlaceUniform(rng, 50)
	w, err := NewWaypoint(WaypointConfig{
		Field: f, MinSpeed: 1, MaxSpeed: 10, Pause: 2, Rand: rng,
	}, initial)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for step := 0; step < 200; step++ {
		w.Step(1.0)
		for i := 0; i < w.Len(); i++ {
			p := w.Position(i)
			if !f.Contains(p) {
				t.Fatalf("step %d: node %d left the field: %v", step, i, p)
			}
			if p != initial[i] {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("no node moved in 200 s")
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	f := mustField(t, 1000, 1000)
	rng := rand.New(rand.NewSource(6))
	initial := f.PlaceUniform(rng, 20)
	w, err := NewWaypoint(WaypointConfig{
		Field: f, MinSpeed: 2, MaxSpeed: 5, Pause: 0, Rand: rng,
	}, initial)
	if err != nil {
		t.Fatal(err)
	}
	prev := w.Positions()
	for step := 0; step < 100; step++ {
		const dt = 0.5
		w.Step(dt)
		for i := 0; i < w.Len(); i++ {
			d := prev[i].Dist(w.Position(i))
			if d > 5*dt+1e-9 {
				t.Fatalf("node %d moved %v m in %v s (max speed 5)", i, d, dt)
			}
		}
		prev = w.Positions()
	}
}

func TestWaypointValidation(t *testing.T) {
	f := mustField(t, 10, 10)
	rng := rand.New(rand.NewSource(7))
	if _, err := NewWaypoint(WaypointConfig{Field: f, MinSpeed: 1, MaxSpeed: 2, Rand: nil}, nil); err == nil {
		t.Fatal("accepted nil Rand")
	}
	if _, err := NewWaypoint(WaypointConfig{Field: f, MinSpeed: 0, MaxSpeed: 2, Rand: rng}, nil); err == nil {
		t.Fatal("accepted zero MinSpeed")
	}
	if _, err := NewWaypoint(WaypointConfig{Field: f, MinSpeed: 3, MaxSpeed: 2, Rand: rng}, nil); err == nil {
		t.Fatal("accepted MaxSpeed < MinSpeed")
	}
	if _, err := NewWaypoint(WaypointConfig{Field: f, MinSpeed: 1, MaxSpeed: 2, Pause: -1, Rand: rng}, nil); err == nil {
		t.Fatal("accepted negative pause")
	}
	if _, err := NewWaypoint(WaypointConfig{Field: f, MinSpeed: 1, MaxSpeed: 2, Rand: rng},
		[]Point{{X: 100, Y: 100}}); err == nil {
		t.Fatal("accepted out-of-field initial position")
	}
}

// Property: grid range queries agree with brute force for random layouts.
func TestPropertyGridEquivalence(t *testing.T) {
	f := mustField(t, 500, 500)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := f.PlaceUniform(rng, 60)
		const r = 80.0
		grid, err := NewGrid(f, pts, r)
		if err != nil {
			return false
		}
		i := rng.Intn(len(pts))
		got := map[int]bool{}
		for _, j := range grid.WithinRange(nil, i) {
			got[j] = true
		}
		for j := range pts {
			want := i != j && pts[i].Dist(pts[j]) <= r
			if got[j] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// hopDistanceOracle is the plain map-backed BFS from src that
// HopDistance must agree with on every input.
func hopDistanceOracle(g *Graph, src, dst, maxHops int, excludeDirect bool) (int, bool) {
	if src == dst {
		return 0, true
	}
	visited := map[int]bool{src: true}
	frontier := []int{src}
	for hop := 1; hop <= maxHops && len(frontier) > 0; hop++ {
		var next []int
		for _, u := range frontier {
			for _, v := range g.Adj[u] {
				if excludeDirect && u == src && v == dst {
					continue
				}
				if v == dst {
					return hop, true
				}
				if !visited[v] {
					visited[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return 0, false
}

// randomGraph draws an undirected graph on 2..300 nodes split into up to
// four components, with some nodes left isolated, a few self-loops, and
// every adjacency list shuffled.
func randomGraph(rng *rand.Rand) *Graph {
	n := 2 + rng.Intn(299)
	comp := make([]int, n)
	for v := range comp {
		if rng.Intn(10) == 0 {
			comp[v] = -1 - v // isolated
		} else {
			comp[v] = rng.Intn(1 + rng.Intn(4))
		}
	}
	g := &Graph{Adj: make([][]int, n)}
	seen := map[[2]int]bool{}
	for e := int(float64(n) * (0.3 + 4*rng.Float64())); e > 0; e-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u > v {
			u, v = v, u
		}
		if u == v || comp[u] != comp[v] || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		g.Adj[u] = append(g.Adj[u], v)
		g.Adj[v] = append(g.Adj[v], u)
	}
	for v := range g.Adj {
		if rng.Intn(20) == 0 {
			g.Adj[v] = append(g.Adj[v], v) // self-loops never shorten a path
		}
	}
	for _, nbrs := range g.Adj {
		rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
	}
	return g
}

func checkAgainstOracle(t *testing.T, g *Graph, src, dst, nu int, excludeDirect bool) {
	t.Helper()
	gotD, gotOK := g.HopDistance(src, dst, nu, excludeDirect)
	wantD, wantOK := hopDistanceOracle(g, src, dst, nu, excludeDirect)
	if gotD != wantD || gotOK != wantOK {
		t.Fatalf("HopDistance(%d, %d, ν=%d, excludeDirect=%v) on %d nodes = (%d, %v), oracle (%d, %v)",
			src, dst, nu, excludeDirect, len(g.Adj), gotD, gotOK, wantD, wantOK)
	}
}

// Property: HopDistance equals the BFS oracle for every ν from 1 to 8,
// with and without the direct edge, on edges, random pairs and src == dst.
func TestHopDistanceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng)
		n := len(g.Adj)
		var pairs [][2]int
		for u, nbrs := range g.Adj {
			for _, v := range nbrs {
				if rng.Intn(4) == 0 {
					pairs = append(pairs, [2]int{u, v})
				}
			}
		}
		for k := 0; k < 20; k++ {
			pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		v := rng.Intn(n)
		pairs = append(pairs, [2]int{v, v})
		for _, p := range pairs {
			for nu := 1; nu <= 8; nu++ {
				for _, excl := range []bool{false, true} {
					checkAgainstOracle(t, g, p[0], p[1], nu, excl)
				}
			}
		}
	}
}

// The campaign-shaped logical graph at Fig. 5b's smallest and largest
// common ν: every physical edge, direct logical edge excluded.
func TestHopDistanceMatchesOracleOnCampaignGraph(t *testing.T) {
	_, logical, edges := campaignGraphs(t, 2)
	for _, nu := range []int{2, 8} {
		for _, e := range edges {
			checkAgainstOracle(t, logical, e[0], e[1], nu, true)
		}
	}
}

// Concurrent callers draw separate scratch from the pool and still get
// the sequential answers.
func TestHopDistanceConcurrent(t *testing.T) {
	_, g, edges := campaignGraphs(t, 4)
	type query struct{ src, dst, nu int }
	var queries []query
	var want []int
	for _, e := range edges[:1000] {
		for _, nu := range []int{2, 5} {
			queries = append(queries, query{e[0], e[1], nu})
			d, _ := hopDistanceOracle(g, e[0], e[1], nu, true)
			want = append(want, d)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				if d, _ := g.HopDistance(q.src, q.dst, q.nu, true); d != want[i] {
					t.Errorf("HopDistance(%d, %d, ν=%d) = %d, want %d", q.src, q.dst, q.nu, d, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestHopDistanceAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	_, logical, edges := campaignGraphs(t, 3)
	sweep := func() {
		for _, e := range edges[:500] {
			logical.HopDistance(e[0], e[1], 2, true)
			logical.HopDistance(e[0], e[1], 8, true)
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
		t.Fatalf("warmed-up HopDistance allocates: %v allocs per 1000 calls", allocs)
	}
}
