package dsss

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/chips"
	"repro/internal/ibc"
)

// End-to-end chip-level D-NDP: the four-message §V-B exchange carried out
// entirely at the PHY — real spread codes, real frames, real correlation
// receivers, and a chip-level reactive jammer — culminating in both
// endpoints deriving the same session spread code.
//
// This is the chip-level leg of the cross-check. The campaign engine and
// the event-driven core both model the reactive jammer as "jams a message
// iff its code is compromised"; experiment.TestCrossCheckEnginesAgree
// checks those two engines against Theorem 1, and this test checks the
// abstraction itself against actual chip-level decoding: a frame on a
// compromised code is lost, every other message decodes on the code it was
// sent with, and a forged AUTH1 survives the air interface only to be
// rejected by ibc.VerifyMAC (TestChipLevelAuthRejectsForgery).
// TestChipLevelFullExchange runs the same exchange without a jammer, with a
// private code on each side among the codes the receiver scans.

const (
	// The paper's N = 512. At N = 256, τ = 0.15 sits only ≈2.4σ above the
	// cross-correlation noise of a misaligned foreign code, so a scan can
	// lock onto the wrong code; at 512 the margin is 3.4σ.
	e2eChipLen = 512
	e2eTau     = 0.15
	e2eMu      = 1.0
)

// chipJammer is a reactive jammer at chip fidelity: for every frame spread
// with a code it knows, it identifies the code during the first 1/(1+μ)
// fraction and inverts the remainder — destroying more than the ECC budget.
type chipJammer struct {
	known []chips.Sequence
}

func (j *chipJammer) knows(code chips.Sequence) bool {
	for _, k := range j.known {
		if k.Equal(code) {
			return true
		}
	}
	return false
}

// attack jams the frame on the channel if its code is known.
func (j *chipJammer) attack(ch *Channel, frame chips.Sequence, off int, code chips.Sequence) {
	if !j.knows(code) {
		return
	}
	identifyBy := int(float64(frame.Len()) / (1 + e2eMu) * 0.9) // identified in time
	ch.AddInverted(frame.Slice(identifyBy, frame.Len()), off+identifyBy)
}

// transmitFrame puts an RS-coded spread frame on a fresh channel and lets
// the jammer react.
func transmitFrame(t *testing.T, frame *Frame, jam *chipJammer, msg []byte, code chips.Sequence, off int) *Channel {
	t.Helper()
	sig, err := frame.Transmit(msg, code)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(off + sig.Len() + 200)
	if err != nil {
		t.Fatal(err)
	}
	ch.Add(sig, off)
	jam.attack(ch, sig, off, code)
	return ch
}

// receive scans ch for a msgLen-byte frame over the candidate codes and
// checks that it decoded on sent, the code the frame was spread with.
func receive(t *testing.T, frame *Frame, ch *Channel, codes []chips.Sequence, sent chips.Sequence, msgLen int) []byte {
	t.Helper()
	got, idx, _, err := frame.ReceiveScan(ch.Samples(), codes, msgLen)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	if !codes[idx].Equal(sent) {
		t.Fatalf("decoded on candidate code %d, not the code the frame was sent with", idx)
	}
	return got
}

// e2ePair is the two endpoints of the exchange, A (ID 10) and B (ID 20),
// holding ID-based keys from one authority, and the frame codec they share.
type e2ePair struct {
	frame      *Frame
	keyA, keyB *ibc.PrivateKey
}

func newE2EPair(t *testing.T, rng *rand.Rand) *e2ePair {
	t.Helper()
	frame, err := NewFrame(e2eMu, e2eTau)
	if err != nil {
		t.Fatal(err)
	}
	auth, err := ibc.NewAuthority(ibc.AuthorityConfig{Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
	keyA, err := auth.Issue(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := auth.Issue(20, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &e2ePair{frame: frame, keyA: keyA, keyB: keyB}
}

// auth1 builds A's message 3, {ID_A, n_A, f_K(ID_A|n_A)}.
func (p *e2ePair) auth1(nA []byte) []byte {
	mac := ibc.MAC(p.keyA.SharedKey(20), 20, []byte{0, 10}, nA)
	return append(append([]byte{0, 10}, nA...), mac...)
}

// verifyAt checks an {ID, n, MAC} message with the pairwise key receiver
// shares with the ID it claims as sender.
func verifyAt(receiver *ibc.PrivateKey, msg []byte) bool {
	claimed := ibc.NodeID(msg[0])<<8 | ibc.NodeID(msg[1])
	return ibc.VerifyMAC(receiver.SharedKey(claimed), msg[5:], msg[:2], msg[2:5])
}

// confirmAndAuthenticate runs messages 2–4 of §V-B on code, which A's HELLO
// arrived on, and returns the session spread code C_AB = h_K(n_A⊗n_B) after
// checking that both endpoints derived it.
func (p *e2ePair) confirmAndAuthenticate(t *testing.T, jam *chipJammer, code chips.Sequence, codesA, codesB []chips.Sequence) chips.Sequence {
	t.Helper()
	// --- Message 2: B CONFIRMs on the code the HELLO arrived on.
	confirm := []byte{0x02, 20} // {CONFIRM, ID_B}
	ch2 := transmitFrame(t, p.frame, jam, confirm, code, 500)
	got2 := receive(t, p.frame, ch2, codesA, code, len(confirm))
	if !bytes.Equal(got2, confirm) {
		t.Fatal("CONFIRM corrupted")
	}

	// --- Message 3: A → B {ID_A, n_A, f_K(ID_A|n_A)}.
	nA := []byte{0xAA, 0xBB, 0x01}
	msg3 := p.auth1(nA)
	ch3 := transmitFrame(t, p.frame, jam, msg3, code, 700)
	got3 := receive(t, p.frame, ch3, codesB, code, len(msg3))
	if !verifyAt(p.keyB, got3) {
		t.Fatal("B rejected a genuine AUTH1 MAC")
	}
	rxNA := got3[2:5]

	// --- Message 4: B → A {ID_B, n_B, f_K(ID_B|n_B)}.
	kBA := p.keyB.SharedKey(10)
	nB := []byte{0xCC, 0xDD, 0x02}
	macB := ibc.MAC(kBA, 20, []byte{0, 20}, nB)
	msg4 := append(append([]byte{0, 20}, nB...), macB...)
	ch4 := transmitFrame(t, p.frame, jam, msg4, code, 900)
	got4 := receive(t, p.frame, ch4, codesA, code, len(msg4))
	if !verifyAt(p.keyA, got4) {
		t.Fatal("A rejected a genuine AUTH2 MAC")
	}
	rxNB := got4[2:5]

	// --- Both endpoints derive the session spread code C_AB = h_K(n_A⊗n_B).
	sessA, err := ibc.SessionCode(p.keyA.SharedKey(20), nA, rxNB, e2eChipLen)
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := ibc.SessionCode(kBA, rxNA, nB, e2eChipLen)
	if err != nil {
		t.Fatal(err)
	}
	if !sessA.Equal(sessB) {
		t.Fatal("endpoints derived different session spread codes")
	}
	return sessA
}

func TestChipLevelDNDPEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := newE2EPair(t, rng)
	frame := p.frame

	// Three pool codes — one shared (clean), one shared (compromised), one
	// B-only.
	sharedClean := chips.NewRandom(rng, e2eChipLen)
	sharedDirty := chips.NewRandom(rng, e2eChipLen)
	bOnly := chips.NewRandom(rng, e2eChipLen)
	codesA := []chips.Sequence{sharedClean, sharedDirty}
	codesB := []chips.Sequence{sharedClean, sharedDirty, bOnly}
	jam := &chipJammer{known: []chips.Sequence{sharedDirty}}

	// --- Message 1: A broadcasts HELLO on each of its codes. B scans with
	// its own code set and must recover the copy on the clean shared code.
	hello := []byte{0x01, 10} // {HELLO, ID_A}
	decodedOn := -1
	for _, code := range codesA {
		ch := transmitFrame(t, frame, jam, hello, code, 300)
		got, idx, _, err := frame.ReceiveScan(ch.Samples(), codesB, len(hello))
		if err != nil {
			continue // jammed copy
		}
		if !bytes.Equal(got, hello) {
			t.Fatalf("corrupted HELLO decode: %v", got)
		}
		if !codesB[idx].Equal(code) {
			t.Fatalf("HELLO decoded on candidate code %d, not the code it was sent with", idx)
		}
		decodedOn = idx
	}
	if decodedOn != 0 {
		t.Fatalf("HELLO decoded with code %d, want the clean shared code (0)", decodedOn)
	}
	// The copy on the compromised code must NOT decode.
	chDirty := transmitFrame(t, frame, jam, hello, sharedDirty, 100)
	if _, _, _, err := frame.ReceiveScan(chDirty.Samples(), []chips.Sequence{sharedDirty}, len(hello)); err == nil {
		t.Fatal("jammed HELLO decoded despite >μ/(1+μ) corruption")
	}

	sess := p.confirmAndAuthenticate(t, jam, sharedClean, codesA, codesB)

	// --- The session code is unjammable: the jammer does not know it, so
	// a frame spread with it sails through, and inverting a random wrong
	// guess does nothing.
	sessionMsg := []byte("over session code")
	ch5 := transmitFrame(t, frame, jam, sessionMsg, sess, 400)
	// Jammer guesses a random code and jams with it anyway.
	guess := chips.NewRandom(rng, e2eChipLen)
	wrongJam, err := Spread(BytesToBits(make([]byte, len(sessionMsg)*2)), guess)
	if err != nil {
		t.Fatal(err)
	}
	ch5.AddInverted(wrongJam, 400)
	got5 := receive(t, frame, ch5, []chips.Sequence{sess}, sess, len(sessionMsg))
	if !bytes.Equal(got5, sessionMsg) {
		t.Fatal("session-code frame corrupted")
	}
}

// TestChipLevelFullExchange runs the four-message exchange with no jammer,
// each endpoint holding one private code besides the code they share and
// scanning its whole code set: every message decodes on the shared code it
// was sent with, and the derived session code carries traffic.
func TestChipLevelFullExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := newE2EPair(t, rng)
	shared := chips.NewRandom(rng, e2eChipLen)
	aOnly := chips.NewRandom(rng, e2eChipLen)
	bOnly := chips.NewRandom(rng, e2eChipLen)
	codesA := []chips.Sequence{aOnly, shared}
	codesB := []chips.Sequence{bOnly, shared}
	quiet := &chipJammer{}

	hello := []byte{0x01, 10} // {HELLO, ID_A}
	chShared := transmitFrame(t, p.frame, quiet, hello, shared, 150)
	if got := receive(t, p.frame, chShared, codesB, shared, len(hello)); !bytes.Equal(got, hello) {
		t.Fatalf("corrupted HELLO decode: %v", got)
	}

	sess := p.confirmAndAuthenticate(t, quiet, shared, codesA, codesB)
	traffic := []byte("post-discovery traffic")
	ch := transmitFrame(t, p.frame, quiet, traffic, sess, 150)
	if got := receive(t, p.frame, ch, []chips.Sequence{sess}, sess, len(traffic)); !bytes.Equal(got, traffic) {
		t.Fatal("session-code traffic corrupted")
	}
}

// TestChipLevelAuthRejectsForgery sends tampered AUTH1 messages over the air
// on the clean shared code: each decodes intact at chip level, so only the
// MAC check can stop it, and ibc.VerifyMAC does.
func TestChipLevelAuthRejectsForgery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newE2EPair(t, rng)
	code := chips.NewRandom(rng, e2eChipLen)
	codesB := []chips.Sequence{chips.NewRandom(rng, e2eChipLen), code}
	genuine := p.auth1([]byte{5, 5, 5})
	if !verifyAt(p.keyB, genuine) {
		t.Fatal("B rejected a genuine AUTH1 MAC")
	}

	for _, tc := range []struct {
		name   string
		tamper func(msg []byte)
	}{
		{"flipped MAC byte", func(msg []byte) { msg[len(msg)-1] ^= 0xFF }},
		{"spoofed sender", func(msg []byte) { msg[1] ^= 0x01 }},
		{"altered nonce", func(msg []byte) { msg[2] ^= 0x80 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forged := append([]byte(nil), genuine...)
			tc.tamper(forged)
			ch := transmitFrame(t, p.frame, &chipJammer{}, forged, code, 600)
			got := receive(t, p.frame, ch, codesB, code, len(forged))
			if !bytes.Equal(got, forged) {
				t.Fatal("forged AUTH1 corrupted on the air")
			}
			if verifyAt(p.keyB, got) {
				t.Fatal("B accepted a forged AUTH1")
			}
		})
	}
}
