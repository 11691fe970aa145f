package core

import (
	"repro/internal/ibc"
	"repro/internal/trace"
)

// Causal-span instrumentation of the handshake pipeline. Virtual time
// only advances between engine events, so every meaningful span is
// cross-event: it opens in one handler and closes in the scheduled
// continuation, with the span ID carried in the protocol state structs.
// The phase decomposition (all children of the initiator's dndp.attempt
// root, which itself nests under the engine's sim.run span):
//
//	dndp.attempt      initiator: one HELLO round, until superseded/crash
//	dndp.hello_sweep  initiator: the sequential m-code HELLO broadcast
//	dndp.hello_buffer responder: buffer + scan delay before CONFIRM
//	dndp.auth1_prep   initiator: CONFIRM processing + pairwise-key time
//	dndp.auth1_verify responder: key derivation + MAC verification
//	dndp.confirm      cross-node: AUTH2 in flight until the initiator
//	                  accepts — left open when jamming destroys it
//	mndp.verify       relay/responder: signature-chain verification
//	mndp.respond      responder: key + signing until the response is sent
//
// A span that never ends is not a bug: it is the trace of a destroyed
// handshake, clamped and counted by trace.BuildSpans.

// spanStart opens a span at the current virtual time; 0 when tracing is
// off.
func (n *Network) spanStart(parent trace.SpanID, node, peer int, name string) trace.SpanID {
	if n.tracer == nil {
		return 0
	}
	return n.tracer.Start(float64(n.engine.Now()), parent, node, peer, name)
}

// spanEnd closes a span at the current virtual time; ending span 0 is a
// no-op so call sites stay unconditional.
func (n *Network) spanEnd(id trace.SpanID, node, peer int, detail string) {
	if n.tracer == nil {
		return
	}
	n.tracer.End(float64(n.engine.Now()), id, node, peer, detail)
}

// attemptSpanOf returns the open dndp.attempt span of the given
// initiator, so responder-side phases can parent to the handshake they
// serve without widening the wire format.
func (n *Network) attemptSpanOf(id ibc.NodeID) trace.SpanID {
	if n.tracer == nil || int(id) < 0 || int(id) >= len(n.nodes) {
		return 0
	}
	if st := n.nodes[id].initiator; st != nil {
		return st.attemptSpan
	}
	return 0
}

// endConfirmSpan closes the responder-held dndp.confirm span once the
// initiator's verdict on the AUTH2 is known.
func (n *Network) endConfirmSpan(responder, initiator ibc.NodeID, detail string) {
	if n.tracer == nil || int(responder) < 0 || int(responder) >= len(n.nodes) {
		return
	}
	rs := n.nodes[responder].responders[initiator]
	if rs == nil || rs.confirmSpan == 0 {
		return
	}
	n.spanEnd(rs.confirmSpan, int(initiator), int(responder), detail)
	rs.confirmSpan = 0
}

// closeAttemptSpans ends every still-open dndp.attempt span once the
// event queue has drained: the round is over, nothing can advance those
// handshakes further, and their duration — start to quiescence — is the
// real time the initiator's round stayed live. Per-message phases are
// left to their own closers; an open confirm at quiescence stays open
// deliberately (it is the trace of a destroyed handshake).
func (n *Network) closeAttemptSpans(detail string) {
	if n.tracer == nil {
		return
	}
	for _, nd := range n.nodes {
		if st := nd.initiator; st != nil && st.attemptSpan != 0 {
			n.spanEnd(st.attemptSpan, nd.index, -1, detail)
			st.attemptSpan = 0
		}
	}
}

// endNodeSpans closes every span the crashing node holds: its open
// attempt (and per-peer prep phases) plus its responder-side phases. The
// spans of peers talking to it stay open — their handshakes really are
// dead, and the open-span count in the report is how that shows up.
func (n *Network) endNodeSpans(nd *Node, detail string) {
	if n.tracer == nil {
		return
	}
	if st := nd.initiator; st != nil {
		for _, peer := range sortedPeers(st.peers) {
			ip := st.peers[peer]
			n.spanEnd(ip.prepSpan, nd.index, int(peer), detail)
			ip.prepSpan = 0
		}
		n.spanEnd(st.attemptSpan, nd.index, -1, detail)
		st.attemptSpan = 0
	}
	for _, peer := range sortedPeers(nd.responders) {
		rs := nd.responders[peer]
		n.spanEnd(rs.bufferSpan, nd.index, int(peer), detail)
		rs.bufferSpan = 0
		n.spanEnd(rs.confirmSpan, nd.index, int(peer), detail)
		rs.confirmSpan = 0
	}
}
