package dsss

import (
	"math/rand"
	"testing"

	"repro/internal/chips"
)

// Physical-layer micro-benchmarks, gated by cmd/jrsnd-benchgate against
// the checked-in BENCH_dsss.json baseline: the word-parallel kernels
// (superposition, correlation, spreading) and the receive path built on
// them.

// benchSignal builds a 2-byte frame spread at offset 900 in a noisy-free
// buffer, shared by the receive-path benchmarks.
func benchSignal(b *testing.B, frame *Frame, code chips.Sequence) ([]int32, []byte) {
	b.Helper()
	msg := []byte{0xA5, 0x3C}
	sig, err := frame.Transmit(msg, code)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := NewChannel(900 + sig.Len() + 300)
	if err != nil {
		b.Fatal(err)
	}
	ch.Add(sig, 900)
	return ch.Samples(), msg
}

// BenchmarkDespreadAt measures the per-frame despread inner loop at the
// paper's N=512 chip length.
func BenchmarkDespreadAt(b *testing.B) {
	frame, err := NewFrame(1.0, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	code := chips.NewRandom(rng, 512)
	buf, msg := benchSignal(b, frame, code)
	numBits := frame.EncodedBits(len(msg))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DespreadAt(buf, 900, code, 0.15, numBits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReceiveScan measures the full §V-B receiver — sliding sync,
// despread, RS decode — over an 8-candidate code set.
func BenchmarkReceiveScan(b *testing.B) {
	frame, err := NewFrame(1.0, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	codes := make([]chips.Sequence, 8)
	for i := range codes {
		codes[i] = chips.NewRandom(rng, 512)
	}
	buf, msg := benchSignal(b, frame, codes[3])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := frame.ReceiveScan(buf, codes, len(msg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransmit measures the RS-encode + spread transmit path.
func BenchmarkTransmit(b *testing.B) {
	frame, err := NewFrame(1.0, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	code := chips.NewRandom(rng, 512)
	msg := []byte{0xA5, 0x3C}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frame.Transmit(msg, code); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChannelAdd measures chip superposition in the ext-noise shape:
// a 12-byte frame at N=512 plus 64 full-length foreign transmissions,
// all at offset 0, on a channel cleared per op as a fresh one would be.
func BenchmarkChannelAdd(b *testing.B) {
	frame, err := NewFrame(1.0, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	msg := make([]byte, 12)
	rng.Read(msg)
	sig, err := frame.Transmit(msg, chips.NewRandom(rng, 512))
	if err != nil {
		b.Fatal(err)
	}
	foreign := make([]chips.Sequence, 64)
	for i := range foreign {
		foreign[i] = chips.NewRandom(rng, sig.Len())
	}
	ch, err := NewChannel(sig.Len())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(ch.buf)
		ch.Add(sig, 0)
		for _, f := range foreign {
			ch.Add(f, 0)
		}
	}
}
