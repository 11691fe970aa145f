package ibc

import (
	"math/rand"
	"testing"
)

// The ibc benchgate suite (BENCH_ibc.json): the key, signature and MAC
// work M-NDP and D-NDP spend most of their time in. Seeds are fixed and
// every setup step runs before the timer, so allocs/op is exact.

// benchKey issues node 1's private key under an authority built from a
// fixed seed.
func benchKey(b *testing.B, authoritySeed, keySeed int64) (*Authority, *PrivateKey) {
	b.Helper()
	auth, err := NewAuthority(AuthorityConfig{Rand: rand.New(rand.NewSource(authoritySeed))})
	if err != nil {
		b.Fatal(err)
	}
	key, err := auth.Issue(1, rand.New(rand.NewSource(keySeed)))
	if err != nil {
		b.Fatal(err)
	}
	return auth, key
}

// BenchmarkBlomSharedKey times one ID-based pairwise key derivation.
func BenchmarkBlomSharedKey(b *testing.B) {
	_, key := benchKey(b, 8, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key.SharedKey(NodeID(i%60000 + 2))
	}
}

// BenchmarkIDSignVerify times one ID-based signature check: the
// certificate and the message signature.
func BenchmarkIDSignVerify(b *testing.B) {
	auth, key := benchKey(b, 10, 11)
	msg := []byte("m-ndp request")
	sig := key.Sign(msg)
	root := auth.RootPublicKey()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(root, 1, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifierWarm times a Verifier memo hit: an input that has
// verified before, so no ed25519 work is done.
func BenchmarkVerifierWarm(b *testing.B) {
	auth, key := benchKey(b, 12, 13)
	msg := []byte("m-ndp request")
	sig := key.Sign(msg)
	v := NewVerifier(auth.RootPublicKey())
	if err := v.Verify(1, msg, sig); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Verify(1, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifierCertHit times a Verifier check of a message it has not
// seen under a certificate it has: the message signature alone, plus the
// memo insert. The message memo is emptied every len(msgs) checks so each
// check is a miss; the certificate memo is kept.
func BenchmarkVerifierCertHit(b *testing.B) {
	auth, key := benchKey(b, 14, 15)
	msgs := make([][]byte, 64)
	sigs := make([]Signature, len(msgs))
	for i := range msgs {
		msgs[i] = []byte{'m', 'n', 'd', 'p', byte(i)}
		sigs[i] = key.Sign(msgs[i])
	}
	v := NewVerifier(auth.RootPublicKey())
	if err := v.Verify(1, []byte("warm"), key.Sign([]byte("warm"))); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(msgs)
		if j == 0 {
			clear(v.sigs)
		}
		if err := v.Verify(1, msgs[j], sigs[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionCodeDerivation times one session spread code
// derivation, C_AB = h_K(n_A ⊗ n_B), at 512 chips.
func BenchmarkSessionCodeDerivation(b *testing.B) {
	var key [32]byte
	key[0] = 7
	nA := []byte{1, 2, 3}
	nB := []byte{4, 5, 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SessionCode(key, nA, nB, 512); err != nil {
			b.Fatal(err)
		}
	}
}
