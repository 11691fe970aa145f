package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ibc"
	"repro/internal/radio"
	"repro/internal/sim"
)

// samplePayloads returns one representative payload per message kind,
// exercising every field shape (empty and non-empty slices, optional
// position, nested hops).
func samplePayloads() map[int]any {
	sig := ibc.Signature{
		SignerID: 7,
		PubKey:   bytes.Repeat([]byte{0xAA}, 32),
		Cert:     bytes.Repeat([]byte{0xBB}, 64),
		Sig:      bytes.Repeat([]byte{0xCC}, 64),
	}
	return map[int]any{
		KindHello:   Hello{Initiator: 3},
		KindConfirm: Confirm{Responder: 9, Initiator: 3},
		KindAuth1: Auth{
			Sender: 3, Peer: 9,
			Nonce: []byte{1, 2, 3},
			MAC:   bytes.Repeat([]byte{0xDD}, 20),
		},
		KindAuth2: Auth{
			Sender: 9, Peer: 3,
			Nonce: []byte{4, 5, 6},
			MAC:   bytes.Repeat([]byte{0xEE}, 20),
		},
		KindMNDPRequest: MNDPRequest{
			Nonce: []byte{7, 8, 9},
			Nu:    2,
			Hops: []Hop{
				{ID: 3, Neighbors: []ibc.NodeID{1, 2, 9}, Sig: sig},
				{ID: 9, Neighbors: nil, Sig: sig},
			},
			OriginPosX:   123.5,
			OriginPosY:   -77.25,
			HasOriginPos: true,
		},
		KindMNDPResponse: MNDPResponse{
			Origin:      3,
			Nonce:       []byte{10, 11, 12},
			OriginNonce: []byte{7, 8, 9},
			Nu:          2,
			Path:        []Hop{{ID: 12, Neighbors: []ibc.NodeID{9}, Sig: sig}},
			ReturnRoute: []ibc.NodeID{9, 3},
		},
		KindSessionHello:   Session{Sender: 12, Peer: 3},
		KindSessionConfirm: Session{Sender: 3, Peer: 12},
	}
}

// TestRoundTripByteIdentical is the acceptance criterion: every kind
// round-trips encode→decode→re-encode byte-identically with structural
// equality, under both derived and default limits.
func TestRoundTripByteIdentical(t *testing.T) {
	for name, lim := range map[string]Limits{
		"params":  LimitsFromParams(analysis.Defaults()),
		"default": DefaultLimits(),
	} {
		for kind, payload := range samplePayloads() {
			frame, err := Encode(kind, payload, lim)
			if err != nil {
				t.Fatalf("%s: Encode(%s): %v", name, KindName(kind), err)
			}
			gotKind, gotPayload, err := Decode(frame, lim)
			if err != nil {
				t.Fatalf("%s: Decode(%s): %v", name, KindName(kind), err)
			}
			if gotKind != kind {
				t.Fatalf("%s: kind %d != %d", name, gotKind, kind)
			}
			if !reflect.DeepEqual(gotPayload, payload) {
				t.Fatalf("%s: %s payload mismatch:\n got %#v\nwant %#v",
					name, KindName(kind), gotPayload, payload)
			}
			again, err := Encode(gotKind, gotPayload, lim)
			if err != nil {
				t.Fatalf("%s: re-Encode(%s): %v", name, KindName(kind), err)
			}
			if !bytes.Equal(frame, again) {
				t.Fatalf("%s: %s re-encode not byte-identical", name, KindName(kind))
			}
		}
	}
}

// TestDecodeCopiesFields asserts decoded byte fields never alias the input
// frame: mutating the frame after Decode must not change the payload.
func TestDecodeCopiesFields(t *testing.T) {
	lim := DefaultLimits()
	orig := Auth{Sender: 1, Peer: 2, Nonce: []byte{1, 2, 3}, MAC: bytes.Repeat([]byte{9}, 20)}
	frame, err := Encode(KindAuth1, orig, lim)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := Decode(frame, lim)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xFF
	}
	got := payload.(Auth)
	if !bytes.Equal(got.Nonce, orig.Nonce) || !bytes.Equal(got.MAC, orig.MAC) {
		t.Fatalf("decoded payload aliases frame buffer: %#v", got)
	}
}

func TestDecodeTruncated(t *testing.T) {
	lim := DefaultLimits()
	for kind, payload := range samplePayloads() {
		frame, err := Encode(kind, payload, lim)
		if err != nil {
			t.Fatal(err)
		}
		// Chop at every prefix length; all must fail with ErrTruncated
		// (short header or short field), never panic or succeed.
		for n := 0; n < len(frame); n++ {
			_, _, err := Decode(frame[:n], lim)
			if err == nil {
				t.Fatalf("%s truncated to %d/%d bytes decoded successfully", KindName(kind), n, len(frame))
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s truncated to %d bytes: got %v, want ErrTruncated", KindName(kind), n, err)
			}
		}
	}
}

func TestDecodeErrorTaxonomy(t *testing.T) {
	lim := LimitsFromParams(analysis.Defaults())
	valid, err := Encode(KindAuth1, samplePayloads()[KindAuth1].(Auth), lim)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad version", func(t *testing.T) {
		f := append([]byte(nil), valid...)
		f[0] = 2
		if _, _, err := Decode(f, lim); !errors.Is(err, ErrBadKind) {
			t.Fatalf("got %v, want ErrBadKind", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		f := append([]byte(nil), valid...)
		f[1] = 200
		if _, _, err := Decode(f, lim); !errors.Is(err, ErrBadKind) {
			t.Fatalf("got %v, want ErrBadKind", err)
		}
	})
	t.Run("kind zero", func(t *testing.T) {
		f := append([]byte(nil), valid...)
		f[1] = 0
		if _, _, err := Decode(f, lim); !errors.Is(err, ErrBadKind) {
			t.Fatalf("got %v, want ErrBadKind", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		f := append(append([]byte(nil), valid...), 0xAB)
		if _, _, err := Decode(f, lim); !errors.Is(err, ErrOverflow) {
			t.Fatalf("got %v, want ErrOverflow", err)
		}
	})
	t.Run("nonce over cap", func(t *testing.T) {
		over := Auth{Sender: 1, Peer: 2, Nonce: bytes.Repeat([]byte{1}, lim.MaxNonce+1), MAC: []byte{1}}
		if _, err := Encode(KindAuth1, over, lim); !errors.Is(err, ErrOverflow) {
			t.Fatalf("Encode: got %v, want ErrOverflow", err)
		}
		// Hand-craft the same overflow on the wire: decode under a tighter
		// limit than the frame was encoded with.
		wide := lim
		wide.MaxNonce = lim.MaxNonce + 8
		frame, err := Encode(KindAuth1, over, wide)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Decode(frame, lim); !errors.Is(err, ErrOverflow) {
			t.Fatalf("Decode: got %v, want ErrOverflow", err)
		}
	})
	t.Run("hop count over cap", func(t *testing.T) {
		sig := ibc.Signature{SignerID: 1, PubKey: []byte{1}, Cert: []byte{2}, Sig: []byte{3}}
		hops := make([]Hop, lim.MaxHops+1)
		for i := range hops {
			hops[i] = Hop{ID: ibc.NodeID(i), Sig: sig}
		}
		req := MNDPRequest{Nonce: []byte{1}, Nu: 2, Hops: hops}
		if _, err := Encode(KindMNDPRequest, req, lim); !errors.Is(err, ErrOverflow) {
			t.Fatalf("Encode: got %v, want ErrOverflow", err)
		}
	})
	t.Run("frame over MaxFrame", func(t *testing.T) {
		tiny := lim
		tiny.MaxFrame = 8
		if _, _, err := Decode(valid, tiny); !errors.Is(err, ErrOverflow) {
			t.Fatalf("got %v, want ErrOverflow", err)
		}
	})
	t.Run("kind-payload mismatch", func(t *testing.T) {
		if _, err := Encode(KindHello, Session{Sender: 1, Peer: 2}, lim); !errors.Is(err, ErrBadKind) {
			t.Fatalf("got %v, want ErrBadKind", err)
		}
	})
	t.Run("bad bool byte", func(t *testing.T) {
		req := MNDPRequest{Nonce: []byte{1}, Nu: 1}
		frame, err := Encode(KindMNDPRequest, req, lim)
		if err != nil {
			t.Fatal(err)
		}
		frame[len(frame)-1] = 7 // HasOriginPos flag is the last body byte
		if _, _, err := Decode(frame, lim); !errors.Is(err, ErrBadKind) {
			t.Fatalf("got %v, want ErrBadKind", err)
		}
	})
}

func TestLimitsFromParams(t *testing.T) {
	lim := LimitsFromParams(analysis.Defaults())
	if err := lim.Validate(); err != nil {
		t.Fatal(err)
	}
	if lim.MaxNonce != 3 { // 20 bits → 3 bytes
		t.Fatalf("MaxNonce = %d, want 3", lim.MaxNonce)
	}
	if lim.MaxMAC != 20 { // 160 bits → 20 bytes
		t.Fatalf("MaxMAC = %d, want 20", lim.MaxMAC)
	}
	if lim.MaxHops < 2*analysis.Defaults().Nu {
		t.Fatalf("MaxHops = %d too small for Nu", lim.MaxHops)
	}
	if lim.MaxNeighbors > 1<<16 {
		t.Fatalf("MaxNeighbors = %d exceeds u16 count", lim.MaxNeighbors)
	}
}

// TestPayloadBitsMatchTableI pins every kind's size to the sum of its
// Table I field widths (l_t = 5, l_id = 16, l_n = 20, l_mac = 160,
// l_ν = 4, l_sig = 672) over samplePayloads, and ties the sizes to the
// analysis formulas the figures use: the coded AUTH length l_f and the
// HELLO airtime t_h.
func TestPayloadBitsMatchTableI(t *testing.T) {
	p := analysis.Defaults()
	want := map[int]int{
		KindHello:          5 + 16,
		KindConfirm:        5 + 16,
		KindSessionHello:   5 + 16,
		KindSessionConfirm: 5 + 16,
		KindAuth1:          16 + 20 + 160,
		KindAuth2:          16 + 20 + 160,
		// nonce, ν, then per hop: ID, neighbor list (3 IDs, then none), signature
		KindMNDPRequest: 20 + 4 + (16 + 3*16 + 672) + (16 + 0*16 + 672),
		// two nonces, ν, origin ID, then the responder's hop (1 neighbor)
		KindMNDPResponse: 2*20 + 4 + 16 + (16 + 1*16 + 672),
	}
	for kind, payload := range samplePayloads() {
		if got := PayloadBits(p, payload); got != want[kind] {
			t.Errorf("%s: PayloadBits = %d, want %d", KindName(kind), got, want[kind])
		}
	}
	if got := PayloadBits(p, "not a message"); got != 0 {
		t.Errorf("PayloadBits of a non-message = %d, want 0", got)
	}
	if got := (1 + p.Mu) * float64(PayloadBits(p, Auth{})); got != p.AuthBits() {
		t.Errorf("(1+μ)·AUTH = %v bits, analysis.AuthBits() = %v", got, p.AuthBits())
	}
	m, err := radio.NewMedium(radio.MediumConfig{
		Engine:   sim.NewEngine(),
		Jammer:   radio.NoJammer{},
		Adjacent: func(int) []int { return nil },
		ChipLen:  p.ChipLen,
		ChipRate: p.ChipRate,
		Mu:       p.Mu,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(m.Airtime(PayloadBits(p, Hello{}))); got != p.THello() {
		t.Errorf("HELLO airtime = %v s, analysis.THello() = %v s", got, p.THello())
	}
}

func TestValidateRejectsBadLimits(t *testing.T) {
	for _, bad := range []Limits{
		{},
		{MaxFrame: 1024, MaxNonce: 0, MaxMAC: 1, MaxSigField: 1, MaxNeighbors: 1, MaxHops: 1},
		{MaxFrame: 1024, MaxNonce: 1, MaxMAC: 1, MaxSigField: 1, MaxNeighbors: 1, MaxHops: 300},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted bad limits", bad)
		}
	}
}
