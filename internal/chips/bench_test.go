package chips

import (
	"math/rand"
	"testing"
)

// The chips benchgate suite (BENCH_chips.json): the normalized
// correlation every DSSS lock decision rests on. The seed is fixed and the
// sequences are built before the timer.

// BenchmarkCorrelate512 times one normalized correlation of two random
// 512-chip sequences.
func BenchmarkCorrelate512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u := NewRandom(rng, 512)
	v := NewRandom(rng, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Correlate(u, v); err != nil {
			b.Fatal(err)
		}
	}
}
