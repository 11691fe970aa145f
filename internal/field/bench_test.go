package field

import (
	"math/rand"
	"testing"
)

// campaignGraphs builds the graphs one figure-campaign deployment hands to
// HopDistance: n=2000 nodes placed uniformly on the 5000 m × 5000 m field
// with a 300 m range (analysis.Defaults, mean degree g≈22), and a logical
// graph that keeps each physical edge with probability 1/2, close to
// D-NDP's success rate at Fig. 2a's m=40 point. edges lists every
// physical edge once, u < v, which is the set the campaign tests.
func campaignGraphs(tb testing.TB, seed int64) (physical, logical *Graph, edges [][2]int) {
	tb.Helper()
	f, err := New(5000, 5000)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	physical, err = PhysicalGraph(f, f.PlaceUniform(rng, 2000), 300)
	if err != nil {
		tb.Fatal(err)
	}
	logical = &Graph{Adj: make([][]int, len(physical.Adj))}
	for u, nbrs := range physical.Adj {
		for _, v := range nbrs {
			if v <= u {
				continue
			}
			edges = append(edges, [2]int{u, v})
			if rng.Intn(2) == 0 {
				logical.Adj[u] = append(logical.Adj[u], v)
				logical.Adj[v] = append(logical.Adj[v], u)
			}
		}
	}
	return physical, logical, edges
}

var hopSink int

// benchHopDistance runs the campaign's M-NDP test — an indirect logical
// path of at most nu hops — over every physical edge; one op is one
// deployment's worth of calls.
func benchHopDistance(b *testing.B, nu int) {
	_, logical, edges := campaignGraphs(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := 0
		for _, e := range edges {
			if _, ok := logical.HopDistance(e[0], e[1], nu, true); ok {
				found++
			}
		}
		hopSink = found
	}
}

// BenchmarkHopDistanceNu2 is the default ν of every figure but Fig. 5.
func BenchmarkHopDistanceNu2(b *testing.B) { benchHopDistance(b, 2) }

// BenchmarkHopDistanceNu8 is the largest ν Fig. 5b sweeps.
func BenchmarkHopDistanceNu8(b *testing.B) { benchHopDistance(b, 8) }
