package trace

import "testing"

// BenchmarkRecorderEmit measures the tracing contract: emitting into a nil
// recorder costs effectively one pointer check, so trace sites stay
// unconditional.
func BenchmarkRecorderEmit(b *testing.B) {
	ev := Event{At: 1, Kind: KindTx, Node: 1, Peer: 2, Detail: "bench"}
	b.Run("nil-recorder", func(b *testing.B) {
		var r *Recorder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Emit(ev)
		}
	})
	b.Run("live", func(b *testing.B) {
		r, err := NewRecorder(1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Emit(ev)
		}
	})
}
