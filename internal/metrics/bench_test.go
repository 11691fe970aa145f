package metrics

import "testing"

// BenchmarkMetricsEmit measures the instrumentation contract: an
// uninstrumented hot path (nil handles from a nil registry) costs
// effectively one pointer check, so metrics stay compiled into every
// protocol path.
func BenchmarkMetricsEmit(b *testing.B) {
	b.Run("nil-handles", func(b *testing.B) {
		var c *Counter
		var h *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(float64(i))
		}
	})
	b.Run("live", func(b *testing.B) {
		reg := New()
		c := reg.Counter("bench_total", "bench counter")
		h := reg.Histogram("bench_hist", "bench histogram", ExponentialBounds(1, 2, 16))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(float64(i % 65536))
		}
	})
}
