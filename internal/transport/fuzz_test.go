package transport

import (
	"bytes"
	"net"
	"testing"

	"repro/internal/metrics"
)

// FuzzDatagram throws arbitrary bytes at the listener receive path — the
// exact dispatch the read loop runs on every datagram off the socket. The
// invariants: never panic, never deliver a frame from an unauthenticated
// source, and account for every rejected datagram (each hostile input
// either parses as a harmless control datagram or bumps a drop counter).
func FuzzDatagram(f *testing.F) {
	// Seeds: one valid specimen of each kind, plus classic malformations.
	f.Add(encodeEnvelope(dgHello, 1, encodeHello(helloBody{
		Nonce: bytes.Repeat([]byte{1}, nonceSize),
		MAC:   bytes.Repeat([]byte{2}, macSize),
	})))
	f.Add(encodeEnvelope(dgAck, 1, encodeAck(ackBody{
		Echo:  bytes.Repeat([]byte{3}, nonceSize),
		Nonce: bytes.Repeat([]byte{4}, nonceSize),
		MAC:   bytes.Repeat([]byte{5}, macSize),
	})))
	f.Add(encodeEnvelope(dgFrame, 1, []byte("frame bytes")))
	f.Add(encodeEnvelope(dgPing, 1, nil))
	f.Add(encodeEnvelope(dgPong, 1, nil))
	f.Add(encodeEnvelope(dgBye, 1, nil))
	f.Add([]byte{})
	f.Add([]byte("JR"))
	f.Add([]byte{'J', 'R', Version, dgHello, 0, 0, 0, 1, 0xFF, 0xFF}) // declares a 65535-byte field
	f.Add([]byte{'J', 'R', 99, dgFrame, 0, 0, 0, 1})                  // wrong version
	f.Add([]byte{'X', 'X', Version, dgFrame, 0, 0, 0, 1, 'h', 'i'})   // wrong magic
	f.Add([]byte{'J', 'R', Version, 200, 0, 0, 0, 1})                 // unknown kind

	reg := metrics.New()
	var delivered int
	e, err := Listen("127.0.0.1:0", Config{
		Node:      0,
		Key:       []byte("fuzz key"),
		Directory: StaticDirectory{}, // nobody resolves: handshakes cannot complete
		Metrics:   reg,
		OnFrame:   func(from int, frame []byte) { delivered++ },
	})
	if err != nil {
		f.Fatal(err)
	}
	defer e.Close()
	src := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 65000}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Datagrams past the read-buffer size cannot arrive off the
		// socket (the kernel truncates them); mirror that bound.
		if len(data) > e.maxDgram {
			data = data[:e.maxDgram]
		}
		e.processDatagram(src, data)
		if delivered != 0 {
			t.Fatalf("a fuzzed datagram was delivered as an authenticated frame: %q", data)
		}
		if e.PeerCount() != 0 {
			t.Fatal("a fuzzed datagram registered a peer (empty directory!)")
		}
	})
}
