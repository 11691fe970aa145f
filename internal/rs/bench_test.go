package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// The rs benchgate suite (BENCH_rs.json): one protocol-sized message
// through the μ = 1 codec, the shape every DSSS frame takes. Seeds are
// fixed and the setup, including the first call that builds and caches
// the right-sized block code, runs before the timer, so allocs/op is
// exact.

// benchCodec returns the μ = 1 codec, a 25-byte message drawn from seed,
// and its encoding.
func benchCodec(b *testing.B, seed int64) (*Codec, []byte, []byte, *rand.Rand) {
	b.Helper()
	codec, err := NewCodec(1.0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	msg := make([]byte, 25)
	rng.Read(msg)
	enc, err := codec.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	return codec, msg, enc, rng
}

// BenchmarkRSEncode times one message encode.
func BenchmarkRSEncode(b *testing.B) {
	codec, msg, _, _ := benchCodec(b, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Encode(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSDecodeWithErasures times one decode with a third of the
// encoded symbols erased and overwritten.
func BenchmarkRSDecodeWithErasures(b *testing.B) {
	codec, msg, enc, rng := benchCodec(b, 6)
	erasures := rng.Perm(len(enc))[:len(enc)/3]
	for _, e := range erasures {
		enc[e] ^= 0x5A
	}
	got, err := codec.Decode(enc, len(msg), erasures)
	if err != nil || !bytes.Equal(got, msg) {
		b.Fatalf("setup decode = %x, %v; want %x", got, err, msg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(enc, len(msg), erasures); err != nil {
			b.Fatal(err)
		}
	}
}
