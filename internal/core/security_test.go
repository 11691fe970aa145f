package core

import (
	"encoding/hex"
	"testing"

	"repro/internal/ibc"
	"repro/internal/radio"
	"repro/internal/wire"
)

// securityNet builds a 4-node cluster, completes D-NDP, and returns the
// network: all nodes are mutual logical neighbors afterwards.
func securityNet(t *testing.T, seed int64) *Network {
	t.Helper()
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(4, 5),
		Seed:      seed,
		Jammer:    JamNone,
		Positions: clusterPositions(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if !net.DiscoveredPair(a, b) {
				t.Fatalf("setup: pair (%d,%d) not discovered", a, b)
			}
		}
	}
	return net
}

// inject wire-encodes and delivers an M-NDP message from `from` on the
// session code and drains the engine — the same egress path honest nodes
// use, so the forgery reaches the victim as a well-formed frame and
// exercises the handlers, not the decoder.
func inject(t *testing.T, net *Network, from, to, kind int, payload any) {
	t.Helper()
	if err := net.send(from, to, kind, radio.SessionCode, payload); err != nil {
		t.Fatal(err)
	}
	if err := net.engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMNDPRejectsForgedOriginSignature(t *testing.T) {
	net := securityNet(t, 61)
	victim := net.Node(0)
	before := victim.Stats()

	// A compromised relay (node 1) fabricates a request claiming origin 2
	// with a garbage signature.
	forged := wire.MNDPRequest{
		Nonce: []byte{9, 9, 9},
		Nu:    2,
		Hops: []wire.Hop{
			{
				ID:        2,
				Neighbors: []ibc.NodeID{1},
				Sig: ibc.Signature{
					SignerID: 2,
					PubKey:   make([]byte, 32),
					Cert:     []byte("forged"),
					Sig:      []byte("forged"),
				},
			},
			{ID: 1, Neighbors: []ibc.NodeID{0, 2}, Sig: net.Node(1).priv.Sign([]byte("whatever"))},
		},
	}
	inject(t, net, 1, 0, wire.KindMNDPRequest, forged)
	after := victim.Stats()
	if after.SigFailures <= before.SigFailures {
		t.Fatal("forged origin signature was not rejected")
	}
	if len(victim.mndpIn) != 0 {
		t.Fatal("victim derived a session for a forged request")
	}
}

func TestMNDPRejectsTamperedNeighborList(t *testing.T) {
	net := securityNet(t, 62)
	victim := net.Node(0)
	origin := net.Node(2)

	// Build a correctly signed request from node 2, then tamper with its
	// neighbor list after signing.
	req := wire.MNDPRequest{
		Nonce: origin.newNonce(),
		Nu:    2,
		Hops:  []wire.Hop{{ID: origin.id, Neighbors: origin.neighborIDs()}},
	}
	req.Hops[0].Sig = origin.priv.Sign(transcript(requestHeader(req), req.Hops[:1]))
	req.Hops[0].Neighbors = append(req.Hops[0].Neighbors, 999) // tamper

	before := victim.Stats()
	inject(t, net, 2, 0, wire.KindMNDPRequest, req)
	after := victim.Stats()
	if after.SigFailures <= before.SigFailures {
		t.Fatal("tampered neighbor list passed signature verification")
	}
}

func TestMNDPDedupSuppressesReplay(t *testing.T) {
	net := securityNet(t, 63)
	victim := net.Node(0)
	origin := net.Node(2)

	req := wire.MNDPRequest{
		Nonce: []byte{1, 2, 3},
		Nu:    2,
		Hops:  []wire.Hop{{ID: origin.id, Neighbors: origin.neighborIDs()}},
	}
	req.Hops[0].Sig = origin.priv.Sign(transcript(requestHeader(req), req.Hops[:1]))

	inject(t, net, 2, 0, wire.KindMNDPRequest, req)
	firstVerifications := victim.Stats().SigVerifications
	// Replay the identical request: the (origin, nonce) dedup must drop it
	// before any signature verification runs.
	inject(t, net, 2, 0, wire.KindMNDPRequest, req)
	if got := victim.Stats().SigVerifications; got != firstVerifications {
		t.Fatalf("replay caused %d extra verifications", got-firstVerifications)
	}
}

func TestMNDPRejectsInvalidPathChain(t *testing.T) {
	net := securityNet(t, 64)
	victim := net.Node(0)
	origin := net.Node(2)
	relay := net.Node(1)

	// Origin's signed list deliberately excludes the relay; the relay
	// appends itself anyway. Signatures all verify, but the path check
	// hop[i-1].Neighbors ∋ hop[i].ID must fail.
	req := wire.MNDPRequest{
		Nonce: []byte{7, 7},
		Nu:    3,
		Hops:  []wire.Hop{{ID: origin.id, Neighbors: []ibc.NodeID{3}}}, // no relay
	}
	req.Hops[0].Sig = origin.priv.Sign(transcript(requestHeader(req), req.Hops[:1]))
	req.Hops = append(req.Hops, wire.Hop{ID: relay.id, Neighbors: relay.neighborIDs()})
	req.Hops[1].Sig = relay.priv.Sign(transcript(requestHeader(req), req.Hops[:2]))

	inject(t, net, 1, 0, wire.KindMNDPRequest, req)
	if len(victim.mndpIn) != 0 {
		t.Fatal("victim answered a request whose path chain is invalid")
	}
	if victim.Stats().SigFailures != 0 {
		t.Fatal("signatures were valid; rejection must come from the path check")
	}
}

func TestMNDPRejectsForgedResponse(t *testing.T) {
	net := securityNet(t, 65)
	origin := net.Node(0)
	before := origin.Stats()

	forged := wire.MNDPResponse{
		Origin:      origin.id,
		Nonce:       []byte{1},
		OriginNonce: []byte{2},
		Nu:          2,
		Path: []wire.Hop{{
			ID:        3,
			Neighbors: []ibc.NodeID{0},
			Sig: ibc.Signature{
				SignerID: 3,
				PubKey:   make([]byte, 32),
				Cert:     []byte("bad"),
				Sig:      []byte("bad"),
			},
		}},
	}
	inject(t, net, 1, 0, wire.KindMNDPResponse, forged)
	after := origin.Stats()
	if after.SigFailures <= before.SigFailures {
		t.Fatal("forged response signature was not rejected")
	}
	if len(origin.mndpOut) != 0 {
		t.Fatal("origin derived a session key from a forged response")
	}
}

func TestMNDPRejectsTamperedResponseRelayHop(t *testing.T) {
	net := securityNet(t, 67)
	origin := net.Node(0)
	responder := net.Node(3)
	relay := net.Node(1)

	// A well-formed responder hop…
	resp := wire.MNDPResponse{
		Origin:      origin.id,
		Nonce:       responder.newNonce(),
		OriginNonce: []byte{1, 2},
		Nu:          2,
		Path:        []wire.Hop{{ID: responder.id, Neighbors: responder.neighborIDs()}},
	}
	resp.Path[0].Sig = responder.priv.Sign(transcript(responseHeader(resp), resp.Path[:1]))
	// …relayed with a correctly signed relay hop…
	resp.Path = append(resp.Path, wire.Hop{ID: relay.id, Neighbors: relay.neighborIDs()})
	resp.Path[1].Sig = relay.priv.Sign(transcript(responseHeader(resp), resp.Path[:2]))
	// …then the relay's neighbor list is tampered after signing.
	resp.Path[1].Neighbors = append(resp.Path[1].Neighbors, 777)

	before := origin.Stats()
	inject(t, net, 1, 0, wire.KindMNDPResponse, resp)
	after := origin.Stats()
	if after.SigFailures <= before.SigFailures {
		t.Fatal("tampered relay hop passed verification")
	}
	if len(origin.mndpOut) != 0 {
		t.Fatal("origin derived a key from a tampered response")
	}
}

func TestMNDPResponsePathChainChecked(t *testing.T) {
	net := securityNet(t, 68)
	origin := net.Node(0)
	responder := net.Node(3)
	relay := net.Node(1)

	// The responder's signed list deliberately excludes the relay; the
	// relay still appends itself with a valid signature. All signatures
	// verify, but the origin's C ∈ ℒ_B check must fail.
	resp := wire.MNDPResponse{
		Origin:      origin.id,
		Nonce:       responder.newNonce(),
		OriginNonce: []byte{3, 4},
		Nu:          2,
		Path:        []wire.Hop{{ID: responder.id, Neighbors: []ibc.NodeID{2}}}, // no relay
	}
	resp.Path[0].Sig = responder.priv.Sign(transcript(responseHeader(resp), resp.Path[:1]))
	resp.Path = append(resp.Path, wire.Hop{ID: relay.id, Neighbors: relay.neighborIDs()})
	resp.Path[1].Sig = relay.priv.Sign(transcript(responseHeader(resp), resp.Path[:2]))

	inject(t, net, 1, 0, wire.KindMNDPResponse, resp)
	if origin.Stats().SigFailures != 0 {
		t.Fatal("signatures were valid; rejection must come from the path check")
	}
	if len(origin.mndpOut) != 0 {
		t.Fatal("origin accepted a response whose relay is not in ℒ_B")
	}
}

func TestMNDPIgnoresRequestsFromStrangers(t *testing.T) {
	// Requests arriving from a node that is not a logical neighbor (no
	// session code exists) are undecodable/ignored.
	net, err := NewNetwork(NetworkConfig{
		Params:    smallParams(3, 5),
		Seed:      66,
		Jammer:    JamNone,
		Positions: clusterPositions(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	// No D-NDP ran: nobody is anyone's logical neighbor.
	origin := net.Node(2)
	req := wire.MNDPRequest{
		Nonce: []byte{5},
		Nu:    2,
		Hops:  []wire.Hop{{ID: origin.id, Neighbors: nil}},
	}
	req.Hops[0].Sig = origin.priv.Sign(transcript(requestHeader(req), req.Hops[:1]))
	victim := net.Node(0)
	inject(t, net, 2, 0, wire.KindMNDPRequest, req)
	if victim.Stats().SigVerifications != 0 {
		t.Fatal("victim verified a request from a stranger")
	}
}

// TestMNDPTranscriptsPinned pins the bytes each M-NDP signature covers:
// a request at hops 0–2 and a response signed by its responder and two
// relays. Signatures are deterministic ed25519 over these transcripts, so
// this pin is what keeps every signed M-NDP frame byte-identical. The
// GPS claim and the return route travel unsigned.
func TestMNDPTranscriptsPinned(t *testing.T) {
	req := wire.MNDPRequest{
		Nonce: []byte{0xa1, 0xb2, 0xc3},
		Nu:    3,
		Hops: []wire.Hop{
			{ID: 7, Neighbors: []ibc.NodeID{1, 2, 0x0304}},
			{ID: 0x0102},
			{ID: 2, Neighbors: []ibc.NodeID{7}},
		},
		OriginPosX: 12.5, OriginPosY: 3, HasOriginPos: true,
	}
	reqTranscript := func(i int) []byte { return transcript(requestHeader(req), req.Hops[:i+1]) }
	for i, want := range []string{
		"6d6e64702d726571a1b2c300000003000700000003000100020304",
		"6d6e64702d726571a1b2c300000003000700000003000100020304010200000000",
		"6d6e64702d726571a1b2c3000000030007000000030001000203040102000000000002000000010007",
	} {
		if got := hex.EncodeToString(reqTranscript(i)); got != want {
			t.Errorf("request transcript at hop %d = %s, want %s", i, got, want)
		}
	}

	resp := wire.MNDPResponse{
		Origin:      0x0a0b,
		Nonce:       []byte{5, 6},
		OriginNonce: []byte{0xa1, 0xb2, 0xc3},
		Nu:          3,
		Path: []wire.Hop{
			{ID: 9, Neighbors: []ibc.NodeID{4}},
			{ID: 4, Neighbors: []ibc.NodeID{3, 9}},
			{ID: 3, Neighbors: []ibc.NodeID{4, 0x0a0b}},
		},
		ReturnRoute: []ibc.NodeID{3},
	}
	respTranscript := func(i int) []byte { return transcript(responseHeader(resp), resp.Path[:i+1]) }
	for i, want := range []string{
		"6d6e64702d726573700a0ba1b2c30506000000030009000000010004",
		"6d6e64702d726573700a0ba1b2c3050600000003000900000001000400040000000200030009",
		"6d6e64702d726573700a0ba1b2c305060000000300090000000100040004000000020003000900030000000200040a0b",
	} {
		if got := hex.EncodeToString(respTranscript(i)); got != want {
			t.Errorf("response transcript at path hop %d = %s, want %s", i, got, want)
		}
	}
}
