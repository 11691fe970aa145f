package core

import (
	"testing"

	"repro/internal/radio"
	"repro/internal/wire"
)

// prefixed frames a chunk with the u16 length prefix FuzzHandshakeTranscript
// uses to split its input into individual deliveries.
func prefixed(frames ...[]byte) []byte {
	var out []byte
	for _, fr := range frames {
		out = append(out, byte(len(fr)>>8), byte(len(fr)))
		out = append(out, fr...)
	}
	return out
}

// FuzzHandshakeTranscript feeds an arbitrary transcript of frames into a
// fresh victim node's receive path — the exact surface a Byzantine
// transmitter controls. The input is chunked by u16 length prefixes; each
// chunk is delivered as one frame on a rotating spread code. Properties:
// the engine never panics, always quiesces, and no transcript the fuzzer
// can synthesize produces an accepted neighbor (that would require forging
// a MAC or signature).
func FuzzHandshakeTranscript(f *testing.F) {
	p := smallParams(2, 5)
	lim := wire.LimitsFromParams(p)
	hello, err := wire.Encode(wire.KindHello, wire.Hello{Initiator: 1}, lim)
	if err != nil {
		f.Fatal(err)
	}
	auth, err := wire.Encode(wire.KindAuth1, wire.Auth{
		Sender: 1, Peer: 0,
		Nonce: []byte{1, 2, 3},
		MAC:   make([]byte, 20),
	}, lim)
	if err != nil {
		f.Fatal(err)
	}
	confirm, err := wire.Encode(wire.KindConfirm, wire.Confirm{Responder: 1, Initiator: 0}, lim)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(prefixed(hello))
	f.Add(prefixed(hello, auth))
	f.Add(prefixed(confirm, auth, auth))
	f.Add(prefixed([]byte{0xFF, 0xFF, 0xFF}, hello[:3], auth))

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := NewNetwork(NetworkConfig{
			Params:    p,
			Seed:      9,
			Jammer:    JamNone,
			Positions: clusterPositions(2),
			Defense:   DefaultDefenseConfig(p),
		})
		if err != nil {
			t.Fatal(err)
		}
		victim := net.Node(0)
		codes := victim.codes

		off := 0
		for i := 0; off+2 <= len(data) && i < 64; i++ {
			ln := int(data[off])<<8 | int(data[off+1])
			off += 2
			if ln > len(data)-off {
				ln = len(data) - off
			}
			frame := append([]byte(nil), data[off:off+ln]...)
			off += ln
			code := codes[i%len(codes)]
			if i%5 == 4 {
				code = radio.SessionCode
			}
			victim.handle(1, radio.Message{Code: code, Frame: frame})
		}
		if err := net.engine.Run(); err != nil {
			t.Fatal(err)
		}
		if got := len(victim.neighbors); got != 0 {
			t.Fatalf("fuzz transcript produced %d accepted neighbors", got)
		}
	})
}
