package ibc

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestAuthority(t *testing.T, seed int64) *Authority {
	t.Helper()
	a, err := NewAuthority(AuthorityConfig{CollusionThreshold: 8, Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func issue(t *testing.T, a *Authority, id NodeID, seed int64) *PrivateKey {
	t.Helper()
	k, err := a.Issue(id, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestMulModAgainstBigArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a := rng.Uint64() & blomPrime
		b := rng.Uint64() & blomPrime
		if a == blomPrime {
			a = 0
		}
		if b == blomPrime {
			b = 0
		}
		// Reference via 128-bit decomposition using smaller chunks.
		want := refMulMod(a, b)
		if got := mulMod(a, b); got != want {
			t.Fatalf("mulMod(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

// refMulMod computes a*b mod 2^61-1 by splitting a into 31-bit halves.
func refMulMod(a, b uint64) uint64 {
	const p = blomPrime
	lo := a & ((1 << 31) - 1)
	hi := a >> 31
	// a*b = hi*2^31*b + lo*b; compute each term mod p with 64-bit safety by
	// iterated doubling of small pieces.
	res := mulSmall(hi, b)
	for i := 0; i < 31; i++ {
		res = (res * 2) % p
	}
	return (res + mulSmall(lo, b)) % p
}

// mulSmall multiplies a (< 2^31) by b (< 2^61) mod p using schoolbook
// splitting of b.
func mulSmall(a, b uint64) uint64 {
	const p = blomPrime
	bLo := b & ((1 << 31) - 1)
	bHi := b >> 31
	res := (a * bHi) % p
	for i := 0; i < 31; i++ {
		res = (res * 2) % p
	}
	return (res + (a*bLo)%p) % p
}

func TestSharedKeySymmetry(t *testing.T) {
	auth := newTestAuthority(t, 42)
	keys := make([]*PrivateKey, 10)
	for i := range keys {
		keys[i] = issue(t, auth, NodeID(i), int64(100+i))
	}
	for i := range keys {
		for j := range keys {
			if i == j {
				continue
			}
			kij := keys[i].SharedKey(NodeID(j))
			kji := keys[j].SharedKey(NodeID(i))
			if kij != kji {
				t.Fatalf("K_%d%d != K_%d%d", i, j, j, i)
			}
		}
	}
}

func TestSharedKeysDistinctAcrossPairs(t *testing.T) {
	auth := newTestAuthority(t, 43)
	a := issue(t, auth, 1, 1)
	b := issue(t, auth, 2, 2)
	c := issue(t, auth, 3, 3)
	kab := a.SharedKey(2)
	kac := a.SharedKey(3)
	kbc := b.SharedKey(3)
	if kab == kac || kab == kbc || kac == kbc {
		t.Fatal("pairwise keys collide across distinct pairs")
	}
	// A third party's key with either endpoint differs from K_AB.
	if c.SharedKey(1) == kab || c.SharedKey(2) == kab {
		t.Fatal("outsider derived the pair key")
	}
}

func TestIssueRejectsDuplicateID(t *testing.T) {
	auth := newTestAuthority(t, 44)
	issue(t, auth, 7, 1)
	if _, err := auth.Issue(7, rand.New(rand.NewSource(2))); err == nil {
		t.Fatal("duplicate issue accepted")
	}
}

// TestIssueDefersSigningKey: Issue draws the signing seed at once, so
// the caller's rng advances by the same 32 bytes whether or not the key
// ever signs, and the first Sign yields the key and certificate an eager
// derivation from that seed gives.
func TestIssueDefersSigningKey(t *testing.T) {
	auth := newTestAuthority(t, 52)
	rng := rand.New(rand.NewSource(7))
	k, err := auth.Issue(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref := rand.New(rand.NewSource(7))
	seed := make([]byte, ed25519.SeedSize)
	fillRand(ref, seed)
	if got, want := rng.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("rng after Issue draws %d, want %d", got, want)
	}
	signKey := ed25519.NewKeyFromSeed(seed)
	pub := signKey.Public().(ed25519.PublicKey)
	msg := []byte("m-ndp request")
	sig := k.Sign(msg)
	if !bytes.Equal(sig.PubKey, pub) {
		t.Fatal("lazily derived public key differs from the seed's")
	}
	if !bytes.Equal(sig.Cert, ed25519.Sign(auth.rootKey, certPayload(10, pub))) {
		t.Fatal("lazily derived certificate differs from an eager one")
	}
	if !bytes.Equal(sig.Sig, ed25519.Sign(signKey, msg)) {
		t.Fatal("signature differs from one under the seed's key")
	}
}

func TestAuthorityRequiresRand(t *testing.T) {
	if _, err := NewAuthority(AuthorityConfig{}); err == nil {
		t.Fatal("NewAuthority accepted nil Rand")
	}
	auth := newTestAuthority(t, 45)
	if _, err := auth.Issue(1, nil); err == nil {
		t.Fatal("Issue accepted nil rng")
	}
}

func TestIDPointInjectiveOnSample(t *testing.T) {
	seen := make(map[uint64]NodeID, 1<<16)
	for id := 0; id < 1<<16; id++ {
		p := idPoint(NodeID(id))
		if p == 0 || p >= blomPrime {
			t.Fatalf("idPoint(%d) = %d out of field range", id, p)
		}
		if prev, ok := seen[p]; ok {
			t.Fatalf("idPoint collision: %d and %d → %d", prev, id, p)
		}
		seen[p] = NodeID(id)
	}
}

func TestSignVerify(t *testing.T) {
	auth := newTestAuthority(t, 46)
	a := issue(t, auth, 10, 1)
	msg := []byte("m-ndp request payload")
	sig := a.Sign(msg)
	if err := Verify(auth.RootPublicKey(), 10, msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

// TestVerifyRejectsTampering runs every rejection against the reference
// Verify and against a Verifier whose memo already holds the genuine
// signatures, so a memo hit can never stand in for a tampered input.
func TestVerifyRejectsTampering(t *testing.T) {
	auth := newTestAuthority(t, 47)
	a := issue(t, auth, 10, 1)
	b := issue(t, auth, 11, 2)
	msg := []byte("payload")
	sig := a.Sign(msg)
	root := auth.RootPublicKey()

	warm := NewVerifier(root)
	if err := warm.Verify(10, msg, sig); err != nil {
		t.Fatalf("warming the memo: %v", err)
	}
	if err := warm.Verify(11, msg, b.Sign(msg)); err != nil {
		t.Fatalf("warming the memo: %v", err)
	}
	verifiers := []struct {
		name   string
		verify func(NodeID, []byte, Signature) error
	}{
		{"Verify", func(id NodeID, m []byte, s Signature) error { return Verify(root, id, m, s) }},
		{"warm Verifier", warm.Verify},
	}

	// Signature swapped onto another identity's cert.
	forged := sig
	forged.SignerID = 11
	forged.Cert = b.Sign(msg).Cert
	// Self-signed cert (attacker without the authority key).
	rogue := sig
	rogue.Cert = append([]byte(nil), sig.Sig...)
	// Truncated public key.
	short := sig
	short.PubKey = sig.PubKey[:5]
	type tamper struct {
		name    string
		claimed NodeID
		msg     []byte
		sig     Signature
	}
	cases := []tamper{
		{"modified message", 10, []byte("other payload"), sig},
		{"wrong claimed ID", 11, msg, sig},
		{"spliced cert", 11, msg, forged},
		{"rogue cert", 10, msg, rogue},
		{"short pubkey", 10, msg, short},
	}
	// Every single-byte flip of the ID (claimed and carried alike, so only
	// the certificate can catch it), key, certificate, signature and
	// message.
	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x01
		return out
	}
	for i := 0; i < 2; i++ {
		s := sig
		s.SignerID ^= NodeID(1) << (8 * i)
		cases = append(cases, tamper{fmt.Sprintf("ID byte %d", i), s.SignerID, msg, s})
	}
	for i := range sig.PubKey {
		s := sig
		s.PubKey = flip(sig.PubKey, i)
		cases = append(cases, tamper{fmt.Sprintf("key byte %d", i), 10, msg, s})
	}
	for i := range sig.Cert {
		s := sig
		s.Cert = flip(sig.Cert, i)
		cases = append(cases, tamper{fmt.Sprintf("cert byte %d", i), 10, msg, s})
	}
	for i := range sig.Sig {
		s := sig
		s.Sig = flip(sig.Sig, i)
		cases = append(cases, tamper{fmt.Sprintf("sig byte %d", i), 10, msg, s})
	}
	for i := range msg {
		cases = append(cases, tamper{fmt.Sprintf("msg byte %d", i), 10, flip(msg, i), sig})
	}

	for _, v := range verifiers {
		for _, c := range cases {
			if err := v.verify(c.claimed, c.msg, c.sig); !errors.Is(err, ErrBadSignature) {
				t.Errorf("%s, %s: err = %v, want ErrBadSignature", v.name, c.name, err)
			}
		}
		// The genuine signature still verifies after all the rejections.
		if err := v.verify(10, msg, sig); err != nil {
			t.Errorf("%s: genuine signature rejected after tampering: %v", v.name, err)
		}
	}
}

// TestVerifierMemoHits checks what the memo saves and that a lookup does
// not allocate: a repeated input is answered from the message memo, and a
// new message under a known certificate skips only the certificate check.
func TestVerifierMemoHits(t *testing.T) {
	auth := newTestAuthority(t, 50)
	a := issue(t, auth, 10, 1)
	msg := []byte("m-ndp request")
	sig := a.Sign(msg)
	v := NewVerifier(auth.RootPublicKey())
	if err := v.Verify(10, msg, sig); err != nil {
		t.Fatal(err)
	}
	if len(v.certs) != 1 || len(v.sigs) != 1 {
		t.Fatalf("after one success: %d certs, %d messages memoised; want 1, 1", len(v.certs), len(v.sigs))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := v.Verify(10, msg, sig); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("memo hit allocates %v times", allocs)
	}
	other := []byte("m-ndp response")
	if err := v.Verify(10, other, a.Sign(other)); err != nil {
		t.Fatal(err)
	}
	if len(v.certs) != 1 || len(v.sigs) != 2 {
		t.Fatalf("after a second message: %d certs, %d messages memoised; want 1, 2", len(v.certs), len(v.sigs))
	}
	bad := a.Sign(other)
	if err := v.Verify(10, msg, bad); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("mismatched message: err = %v, want ErrBadSignature", err)
	}
	if len(v.certs) != 1 || len(v.sigs) != 2 {
		t.Fatalf("a failure was memoised: %d certs, %d messages", len(v.certs), len(v.sigs))
	}
}

// FuzzVerifier is a differential check of the memo: for a genuine
// signature with at most one byte changed in one field, a Verifier that
// has seen earlier inputs and the reference Verify must return the same
// error, also when the same input comes twice.
func FuzzVerifier(f *testing.F) {
	a, err := NewAuthority(AuthorityConfig{CollusionThreshold: 8, Rand: rand.New(rand.NewSource(51))})
	if err != nil {
		f.Fatal(err)
	}
	keys := map[NodeID]*PrivateKey{}
	for _, id := range []NodeID{3, 4} {
		if keys[id], err = a.Issue(id, rand.New(rand.NewSource(int64(id)))); err != nil {
			f.Fatal(err)
		}
	}
	root := a.RootPublicKey()
	v := NewVerifier(root)
	f.Add(uint8(0), []byte("m-ndp request"), uint8(0), uint16(0), uint8(0))
	f.Add(uint8(1), []byte("m-ndp request"), uint8(2), uint16(7), uint8(0x80))
	f.Add(uint8(0), []byte("x"), uint8(3), uint16(63), uint8(1))
	f.Add(uint8(1), []byte{}, uint8(5), uint16(1), uint8(4))
	f.Add(uint8(0), []byte("truncate"), uint8(6), uint16(10), uint8(0))
	f.Fuzz(func(t *testing.T, signer uint8, msg []byte, field uint8, pos uint16, mask uint8) {
		id := NodeID(3 + signer%2)
		sig := keys[id].Sign(msg)
		claimed := id
		mutate := func(b []byte) []byte {
			if len(b) == 0 {
				return b
			}
			out := append([]byte(nil), b...)
			out[int(pos)%len(out)] ^= mask
			return out
		}
		switch field % 8 {
		case 1: // the carried and claimed ID
			sig.SignerID ^= NodeID(mask) << (8 * (pos % 2))
			claimed = sig.SignerID
		case 2:
			sig.PubKey = mutate(sig.PubKey)
		case 3:
			sig.Cert = mutate(sig.Cert)
		case 4:
			sig.Sig = mutate(sig.Sig)
		case 5:
			msg = mutate(msg)
		case 6: // a short certificate, signature or key
			n := int(pos) % 64
			switch mask % 3 {
			case 0:
				sig.Cert = sig.Cert[:n]
			case 1:
				sig.Sig = sig.Sig[:n]
			default:
				sig.PubKey = sig.PubKey[:n%ed25519.PublicKeySize]
			}
		case 7: // only the claimed ID
			claimed ^= NodeID(mask)
		}
		want := Verify(root, claimed, msg, sig)
		for i := 0; i < 2; i++ {
			got := v.Verify(claimed, msg, sig)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("call %d: Verifier = %v, Verify = %v", i+1, got, want)
			}
		}
	})
}

func TestVerifyRejectsForeignAuthority(t *testing.T) {
	auth1 := newTestAuthority(t, 48)
	auth2 := newTestAuthority(t, 49)
	a := issue(t, auth1, 10, 1)
	sig := a.Sign([]byte("msg"))
	if err := Verify(auth2.RootPublicKey(), 10, []byte("msg"), sig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("foreign authority: err = %v, want ErrBadSignature", err)
	}
}

func TestMACRoundTrip(t *testing.T) {
	var key [32]byte
	key[0] = 1
	mac := MAC(key, 20, []byte("idA"), []byte("nonce"))
	if len(mac) != 20 {
		t.Fatalf("MAC length = %d, want 20", len(mac))
	}
	if !VerifyMAC(key, mac, []byte("idA"), []byte("nonce")) {
		t.Fatal("valid MAC rejected")
	}
	if VerifyMAC(key, mac, []byte("idA"), []byte("other")) {
		t.Fatal("wrong-message MAC accepted")
	}
	var otherKey [32]byte
	otherKey[0] = 2
	if VerifyMAC(otherKey, mac, []byte("idA"), []byte("nonce")) {
		t.Fatal("wrong-key MAC accepted")
	}
}

func TestSessionCodeSymmetricInNonces(t *testing.T) {
	var key [32]byte
	key[5] = 9
	nA := []byte{1, 2, 3}
	nB := []byte{9, 8, 7}
	c1, err := SessionCode(key, nA, nB, 512)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := SessionCode(key, nB, nA, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Equal(c2) {
		t.Fatal("session code not symmetric in nonce order")
	}
	if c1.Len() != 512 {
		t.Fatalf("Len = %d, want 512", c1.Len())
	}
	// Different nonces give different codes.
	c3, err := SessionCode(key, []byte{1, 2, 4}, nB, 512)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Equal(c3) {
		t.Fatal("distinct nonces yielded the same session code")
	}
	if _, err := SessionCode(key, nA, []byte{1}, 512); err == nil {
		t.Fatal("mismatched nonce lengths accepted")
	}
}

func TestSessionCodeEndToEnd(t *testing.T) {
	// The full §V-B flow: both ends derive the pairwise key from their own
	// private key and the peer ID, then the same session code.
	auth := newTestAuthority(t, 50)
	a := issue(t, auth, 100, 1)
	b := issue(t, auth, 200, 2)
	nA := []byte{0xde, 0xad}
	nB := []byte{0xbe, 0xef}
	cA, err := SessionCode(a.SharedKey(200), nA, nB, 512)
	if err != nil {
		t.Fatal(err)
	}
	cB, err := SessionCode(b.SharedKey(100), nB, nA, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !cA.Equal(cB) {
		t.Fatal("endpoints derived different session codes")
	}
}

// Property: shared-key symmetry holds for arbitrary ID pairs.
func TestPropertySharedKeySymmetry(t *testing.T) {
	auth := newTestAuthority(t, 51)
	issued := map[NodeID]*PrivateKey{}
	get := func(id NodeID) *PrivateKey {
		if k, ok := issued[id]; ok {
			return k
		}
		k, err := auth.Issue(id, rand.New(rand.NewSource(int64(id)+1)))
		if err != nil {
			t.Fatal(err)
		}
		issued[id] = k
		return k
	}
	f := func(x, y uint16) bool {
		if x == y {
			return true
		}
		a, b := get(NodeID(x)), get(NodeID(y))
		return a.SharedKey(NodeID(y)) == b.SharedKey(NodeID(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
