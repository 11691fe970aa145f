package codepool

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

var (
	poolSink   *Pool
	sharedSink int
)

// BenchmarkNew is one figure-campaign pre-distribution: n=2000, m=100,
// l=40 (analysis.Defaults).
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := New(Config{N: 2000, M: 100, L: 40, Rand: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			b.Fatal(err)
		}
		poolSink = p
	}
}

// BenchmarkSharedOverEdges intersects the code sets of both ends of every
// physical edge of a campaign-shaped deployment (n=2000 on 5000 m × 5000 m
// at 300 m range, g≈22), as D-NDP does once per deployment; one op is the
// whole edge set.
func BenchmarkSharedOverEdges(b *testing.B) {
	p, err := New(Config{N: 2000, M: 100, L: 40, Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		b.Fatal(err)
	}
	f, err := field.New(5000, 5000)
	if err != nil {
		b.Fatal(err)
	}
	g, err := field.PhysicalGraph(f, f.PlaceUniform(rand.New(rand.NewSource(1)), 2000), 300)
	if err != nil {
		b.Fatal(err)
	}
	var shared []CodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for u, nbrs := range g.Adj {
			for _, v := range nbrs {
				if v > u {
					shared = p.AppendShared(shared[:0], u, v)
					total += len(shared)
				}
			}
		}
		sharedSink = total
	}
}
