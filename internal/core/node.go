package core

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/codepool"
	"repro/internal/ibc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DiscoveryMethod records how a logical neighbor was discovered.
type DiscoveryMethod int

// Discovery methods.
const (
	ViaDNDP DiscoveryMethod = iota + 1
	ViaMNDP
)

func (m DiscoveryMethod) String() string {
	switch m {
	case ViaDNDP:
		return "D-NDP"
	case ViaMNDP:
		return "M-NDP"
	default:
		return "unknown"
	}
}

// Neighbor is an authenticated logical neighbor relationship.
type Neighbor struct {
	ID           ibc.NodeID
	Via          DiscoveryMethod
	DiscoveredAt sim.Time
	SessionKey   [32]byte
}

// NodeStats counts the cryptographic work a node performed; the DoS
// experiment of §V-D reports these.
type NodeStats struct {
	KeyComputations  int
	MACVerifications int
	MACFailures      int
	SigVerifications int
	SigFailures      int
	InvalidReports   int
	RevokedCodes     int
}

// dndpInitiatorState tracks one of the node's own HELLO rounds.
type dndpInitiatorState struct {
	nonce []byte
	peers map[ibc.NodeID]*dndpInitiatorPeer
	// attemptSpan is the open dndp.attempt root span (0 when tracing is
	// off); every phase of this round parents to it.
	attemptSpan trace.SpanID
}

// dndpInitiatorPeer tracks the initiator's view of one responder.
type dndpInitiatorPeer struct {
	confirmCodes []codepool.CodeID
	scheduled    bool
	key          [32]byte
	haveKey      bool
	done         bool
	firstConfirm sim.Time     // when the record was created (half-open aging)
	prepSpan     trace.SpanID // open dndp.auth1_prep span
}

// dndpResponderState tracks the responder's view of one initiator.
type dndpResponderState struct {
	helloCodes []codepool.CodeID
	helloSeen  map[codepool.CodeID]bool
	scheduled  bool
	nonce      []byte
	key        [32]byte
	haveKey    bool
	accepted   bool
	firstHello sim.Time
	auth2Codes map[codepool.CodeID]bool
	// bufferSpan/confirmSpan are the open dndp.hello_buffer and
	// dndp.confirm spans held on the responder side.
	bufferSpan  trace.SpanID
	confirmSpan trace.SpanID
}

// mndpPending tracks an M-NDP exchange awaiting the session HELLO/CONFIRM
// beacon.
type mndpPending struct {
	key         [32]byte
	initiatedAt sim.Time
}

// Node is one MANET node running JR-SND.
type Node struct {
	net   *Network
	index int
	id    ibc.NodeID

	codes   []codepool.CodeID // sorted, as every pool assignment is
	priv    *ibc.PrivateKey
	revoker *codepool.Revoker
	rng     *rand.Rand

	neighbors map[ibc.NodeID]*Neighbor

	initiator  *dndpInitiatorState
	responders map[ibc.NodeID]*dndpResponderState

	// M-NDP state.
	seenRequests map[string]bool             // (origin, nonce) dedup
	mndpOut      map[ibc.NodeID]*mndpPending // awaiting beacon from peer
	mndpIn       map[ibc.NodeID]*mndpPending // sent beacon, awaiting confirm

	// Retry/backoff state machine (active when NetworkConfig.Retry is set).
	dndpAttempts int  // D-NDP initiations so far (budget accounting)
	mndpFallback bool // already degraded to M-NDP once

	// Byzantine defenses (active when NetworkConfig.Defense is set).
	seenNonces map[ibc.NodeID]*nonceWindow // verified AUTH nonces per peer
	buckets    map[int]*tokenBucket        // half-open budget per transmitter

	stats NodeStats

	compromised bool
	down        bool    // crashed (node churn); neither sends nor receives
	skew        float64 // local-clock skew multiplier on processing delays
}

// ID returns the node's identity.
func (nd *Node) ID() ibc.NodeID { return nd.id }

// Index returns the node's simulation index.
func (nd *Node) Index() int { return nd.index }

// Stats returns a copy of the node's work counters.
func (nd *Node) Stats() NodeStats {
	s := nd.stats
	s.RevokedCodes = nd.revoker.RevokedCodes()
	return s
}

// Compromised reports whether the adversary controls this node.
func (nd *Node) Compromised() bool { return nd.compromised }

// Down reports whether the node is crashed (churn fault model).
func (nd *Node) Down() bool { return nd.down }

// ClockSkew returns the node's local-clock skew multiplier (1 = nominal).
func (nd *Node) ClockSkew() float64 { return nd.skew }

// Neighbors returns the node's logical-neighbor table (a copy).
func (nd *Node) Neighbors() []Neighbor {
	out := make([]Neighbor, 0, len(nd.neighbors))
	for _, n := range nd.neighbors {
		out = append(out, *n)
	}
	return out
}

// IsLogicalNeighbor reports whether peer has been discovered.
func (nd *Node) IsLogicalNeighbor(peer ibc.NodeID) bool {
	_, ok := nd.neighbors[peer]
	return ok
}

// neighborIDs returns the sorted logical-neighbor ID list ℒ.
func (nd *Node) neighborIDs() []ibc.NodeID { return sortedPeers(nd.neighbors) }

// sortedPeers returns the keys of a per-peer state map in ascending ID
// order, so loops that emit events over that state replay identically.
func sortedPeers[V any](m map[ibc.NodeID]V) []ibc.NodeID {
	out := make([]ibc.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// acceptNeighbor installs peer as an authenticated logical neighbor.
func (nd *Node) acceptNeighbor(peer ibc.NodeID, via DiscoveryMethod, key [32]byte) {
	if _, ok := nd.neighbors[peer]; ok {
		return
	}
	nd.neighbors[peer] = &Neighbor{
		ID:           peer,
		Via:          via,
		DiscoveredAt: nd.net.engine.Now(),
		SessionKey:   key,
	}
	nd.net.emit(trace.KindDiscovery, nd.index, int(peer), "via "+via.String())
	nd.net.recordDiscovery(nd.id, peer, via)
}

// forgetPeer drops every piece of state nd keeps about peer: the logical
// neighbor, both handshake roles and M-NDP progress in either direction,
// so a later encounter runs discovery afresh.
func (nd *Node) forgetPeer(peer ibc.NodeID) {
	delete(nd.neighbors, peer)
	delete(nd.responders, peer)
	delete(nd.mndpOut, peer)
	delete(nd.mndpIn, peer)
	if nd.initiator != nil {
		delete(nd.initiator.peers, peer)
	}
}

// newNonce draws a fresh nonce of the configured length.
func (nd *Node) newNonce() []byte {
	bits := nd.net.params.LenNonce
	buf := make([]byte, (bits+7)/8)
	for i := range buf {
		buf[i] = byte(nd.rng.Intn(256))
	}
	return buf
}

// issued reports whether the node was issued code c.
func (nd *Node) issued(c codepool.CodeID) bool {
	_, ok := slices.BinarySearch(nd.codes, c)
	return ok
}

// holdsCode reports whether the node may de-spread code c (it was issued
// the code and has not locally revoked it).
func (nd *Node) holdsCode(c codepool.CodeID) bool {
	return nd.issued(c) && !nd.revoker.Revoked(c)
}

// reportInvalid feeds the §V-D revocation counter for c.
func (nd *Node) reportInvalid(c codepool.CodeID) {
	if c < 0 {
		return
	}
	nd.stats.InvalidReports++
	nd.net.m.invalidReports.Inc()
	if nd.revoker.ReportInvalid(c) {
		nd.net.m.revokedLocal.Inc()
		nd.net.emit(trace.KindRevocation, nd.index, -1, fmt.Sprintf("code %d locally revoked (γ=%d exceeded)", c, nd.revoker.Gamma()))
	}
}
