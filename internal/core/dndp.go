package core

import (
	"repro/internal/codepool"
	"repro/internal/ibc"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// D-NDP — the direct neighbor-discovery protocol of §V-B.
//
// A initiates by broadcasting {HELLO, ID_A} spread with each of its m
// codes (repeated for r rounds on the air; at message level the jam
// decision per transmission already models the per-message success
// probability, so one logical transmission per code is simulated and the
// r-round repetition is reflected only in the buffering/processing delay
// model). B de-spreads copies on every shared code, CONFIRMs on all of
// them (the x-sub-session redundancy design), and the pair completes
// mutual authentication with two MAC'd messages, deriving the session
// spread code C_AB = h_K(n_A ⊗ n_B).

// dndpDelays samples the §V-B receiver-side delays (Theorem 2's t_r and
// t_d terms) when the configuration models them.

// helloProcDelay is the responder's residual-processing plus buffer-scan
// time before it can act on a buffered HELLO: t_r + t_d ~ U[0,t_p]+U[0,t_p].
func (nd *Node) helloProcDelay() sim.Time {
	if !nd.net.cfg.ModelProcessingDelays {
		return 0
	}
	tp := nd.net.params.TProcess()
	return sim.Time((nd.rng.Float64()*tp + nd.rng.Float64()*tp) * nd.skew)
}

// confirmProcDelay is the initiator's residual-processing plus scan time
// for the CONFIRM: t_r ~ U[0,t_p] plus t_d ~ U[0,λ·t_h] (the CONFIRM is
// found within the first N chip positions).
func (nd *Node) confirmProcDelay() sim.Time {
	if !nd.net.cfg.ModelProcessingDelays {
		return 0
	}
	p := nd.net.params
	return sim.Time((nd.rng.Float64()*p.TProcess() + nd.rng.Float64()*p.Lambda()*p.THello()) * nd.skew)
}

// keyDelay is the ID-based shared-key computation time t_key.
func (nd *Node) keyDelay() sim.Time {
	if !nd.net.cfg.ModelProcessingDelays {
		return 0
	}
	return sim.Time(nd.net.params.TKey * nd.skew)
}

// initiateDNDP starts one D-NDP round: broadcast the HELLO spread with
// every code in ℂ, sequentially.
func (nd *Node) initiateDNDP() {
	if nd.down || nd.compromised {
		return
	}
	now := nd.net.engine.Now()
	if prev := nd.initiator; prev != nil {
		// A fresh round supersedes the previous one (retry/backoff); its
		// attempt span ends here rather than dangling forever.
		nd.net.spanEnd(prev.attemptSpan, nd.index, -1, "superseded by new attempt")
	}
	nd.initiator = &dndpInitiatorState{
		nonce:     nd.newNonce(),
		startedAt: now,
		peers:     map[ibc.NodeID]*dndpInitiatorPeer{},
	}
	nd.initiator.attemptSpan = nd.net.spanStart(nd.net.engine.RunSpan(), nd.index, -1, "dndp.attempt")
	if _, ok := nd.net.initTime[nd.id]; !ok {
		nd.net.initTime[nd.id] = now
	}
	nd.dndpAttempts++
	nd.scheduleDNDPRetryCheck()
	p := nd.net.params
	helloBits := p.LenType + p.LenID
	th := sim.Time(p.THello())
	// The sweep span covers the sequential m-slot HELLO broadcast (the
	// code-assignment phase); its end rides a dedicated timer so it closes
	// even if the node goes down mid-sweep.
	if sweep := nd.net.spanStart(nd.initiator.attemptSpan, nd.index, -1, "dndp.hello_sweep"); sweep != 0 {
		nd.net.engine.MustSchedule(sim.Time(len(nd.codes))*th, func() {
			nd.net.spanEnd(sweep, nd.index, -1, "")
		})
	}
	for i, c := range nd.codes {
		if nd.revoker.Revoked(c) {
			continue
		}
		c := c
		nd.net.engine.MustSchedule(sim.Time(i)*th, func() {
			_ = nd.net.send(nd.index, -1, radio.Message{ // refused if crashed by now
				Kind:        wire.KindHello,
				Code:        c,
				PayloadBits: helloBits,
				Payload:     wire.Hello{Initiator: nd.id},
			})
		})
	}
}

// onHello is the responder path: collect HELLO copies per initiator, then
// CONFIRM on every shared code after the processing delay.
func (nd *Node) onHello(from int, msg radio.Message) {
	p, ok := msg.Payload.(wire.Hello)
	if !ok || p.Initiator == nd.id {
		return
	}
	if !nd.holdsCode(msg.Code) {
		return // cannot de-spread, or locally revoked (§V-D)
	}
	if nd.IsLogicalNeighbor(p.Initiator) {
		if !nd.retryEnabled() {
			return
		}
		// The peer is re-initiating even though we hold a session with it:
		// its side of the handshake never completed (e.g. our AUTH2 was
		// destroyed). Re-run the responder path so the peer can finish —
		// acceptNeighbor is idempotent and the ID-derived key is unchanged,
		// so our own state only gains a fresh handshake record.
		if rs := nd.responders[p.Initiator]; rs != nil && rs.accepted {
			delete(nd.responders, p.Initiator)
		}
	}
	rs := nd.responders[p.Initiator]
	if rs == nil {
		if !nd.admitHalfOpen(from) {
			return // transmitter exceeded its half-open budget
		}
		rs = &dndpResponderState{
			helloSeen:  map[codepool.CodeID]bool{},
			auth2Codes: map[codepool.CodeID]bool{},
			firstHello: nd.net.engine.Now(),
		}
		nd.responders[p.Initiator] = rs
		nd.scheduleResponderReap(p.Initiator, rs)
	}
	if rs.accepted {
		return
	}
	if !rs.helloSeen[msg.Code] {
		rs.helloSeen[msg.Code] = true
		rs.helloCodes = append(rs.helloCodes, msg.Code)
	}
	if rs.scheduled {
		return
	}
	rs.scheduled = true
	initiator := p.Initiator
	// The responder's t_b buffer spans the initiator's whole m-code HELLO
	// sweep (the sweep lasts m·t_h < t_b), so by the time the buffer is
	// processed every shared code's copy is available. Model that by
	// waiting at least the remaining sweep time before CONFIRMing —
	// otherwise the x-sub-session redundancy could never engage.
	delay := nd.helloProcDelay()
	if sweep := sim.Time(float64(nd.net.params.M) * nd.net.params.THello()); delay < sweep {
		delay = sweep
	}
	rs.bufferSpan = nd.net.spanStart(nd.net.attemptSpanOf(initiator), nd.index, int(initiator), "dndp.hello_buffer")
	nd.net.engine.MustSchedule(delay, func() { nd.sendConfirm(initiator) })
}

// sendConfirm transmits the CONFIRM on every code the HELLO arrived on
// (redundancy design) or on a single random one when the ablation switch
// disables redundancy.
func (nd *Node) sendConfirm(initiator ibc.NodeID) {
	rs := nd.responders[initiator]
	if rs != nil && rs.bufferSpan != 0 {
		detail := ""
		if nd.down {
			detail = "down"
		} else if rs.accepted {
			detail = "already accepted"
		}
		nd.net.spanEnd(rs.bufferSpan, nd.index, int(initiator), detail)
		rs.bufferSpan = 0
	}
	if nd.down {
		return
	}
	if rs == nil || rs.accepted {
		return
	}
	codes := rs.helloCodes
	if nd.net.cfg.DisableRedundancy && len(codes) > 1 {
		codes = []codepool.CodeID{codes[nd.rng.Intn(len(codes))]}
		rs.helloCodes = codes
	}
	p := nd.net.params
	for _, c := range codes {
		if nd.revoker.Revoked(c) {
			continue
		}
		_ = nd.net.send(nd.index, -1, radio.Message{
			Kind:        wire.KindConfirm,
			Code:        c,
			PayloadBits: p.LenType + p.LenID,
			Payload:     wire.Confirm{Responder: nd.id, Initiator: initiator},
		})
	}
}

// onConfirm is the initiator path: gather CONFIRM copies from a responder,
// then compute the pairwise key and send the first authentication message
// on every confirmed code.
func (nd *Node) onConfirm(msg radio.Message) {
	p, ok := msg.Payload.(wire.Confirm)
	if !ok || p.Initiator != nd.id || p.Responder == nd.id {
		return
	}
	if !nd.holdsCode(msg.Code) {
		return
	}
	st := nd.initiator
	if st == nil || nd.IsLogicalNeighbor(p.Responder) {
		return
	}
	peer := st.peers[p.Responder]
	if peer == nil {
		peer = &dndpInitiatorPeer{firstConfirm: nd.net.engine.Now()}
		st.peers[p.Responder] = peer
		nd.scheduleInitiatorPeerReap(st, p.Responder, peer)
	}
	if peer.done {
		return
	}
	dup := false
	for _, c := range peer.confirmCodes {
		if c == msg.Code {
			dup = true
		}
	}
	if !dup {
		peer.confirmCodes = append(peer.confirmCodes, msg.Code)
	}
	if peer.scheduled {
		return
	}
	peer.scheduled = true
	responder := p.Responder
	peer.prepSpan = nd.net.spanStart(st.attemptSpan, nd.index, int(responder), "dndp.auth1_prep")
	nd.net.engine.MustSchedule(nd.confirmProcDelay()+nd.keyDelay(), func() {
		nd.sendAuth1(responder)
	})
}

// sendAuth1 computes K_AB and transmits {ID_A, n_A, f_K(ID_A|n_A)} on every
// confirmed code.
func (nd *Node) sendAuth1(responder ibc.NodeID) {
	st := nd.initiator
	if st != nil {
		if peer := st.peers[responder]; peer != nil && peer.prepSpan != 0 {
			detail := ""
			if nd.down {
				detail = "down"
			}
			nd.net.spanEnd(peer.prepSpan, nd.index, int(responder), detail)
			peer.prepSpan = 0
		}
	}
	if nd.down || st == nil {
		return
	}
	peer := st.peers[responder]
	if peer == nil || peer.done {
		return
	}
	if !peer.haveKey {
		peer.key = nd.priv.SharedKey(responder)
		peer.haveKey = true
		nd.stats.KeyComputations++
	}
	p := nd.net.params
	mac := ibc.MAC(peer.key, p.LenMAC/8, idBytes(nd.id), st.nonce)
	bits := p.LenID + p.LenNonce + p.LenMAC
	for _, c := range peer.confirmCodes {
		_ = nd.net.send(nd.index, -1, radio.Message{
			Kind:        wire.KindAuth1,
			Code:        c,
			PayloadBits: bits,
			Payload: wire.Auth{
				Sender: nd.id,
				Peer:   responder,
				Nonce:  append([]byte(nil), st.nonce...),
				MAC:    mac,
			},
		})
	}
}

// onAuth1 is the responder's verification step: compute K_BA (first copy
// pays t_key), verify the MAC, accept the initiator, and answer with the
// second authentication message on the same code. Invalid MACs feed the
// §V-D revocation counters — this is the DoS-attack work the adversary can
// force with compromised codes.
func (nd *Node) onAuth1(from int, msg radio.Message) {
	p, ok := msg.Payload.(wire.Auth)
	if !ok || p.Peer != nd.id || p.Sender == nd.id {
		return
	}
	if !nd.holdsCode(msg.Code) {
		return
	}
	rs := nd.responders[p.Sender]
	if rs == nil {
		// Unsolicited AUTH1: either a replayed recording of a real
		// handshake (the replay window catches known-good nonces before
		// any expensive work) or a DoS injection (the half-open budget
		// caps how fast one radio can force fresh records). Copies that
		// arrive while a record exists ride the x-sub-session redundancy
		// path below and are exempt from both checks.
		if nd.replaySeen(p.Sender, p.Nonce) {
			return
		}
		if !nd.admitHalfOpen(from) {
			return
		}
		rs = &dndpResponderState{
			helloSeen:  map[codepool.CodeID]bool{},
			auth2Codes: map[codepool.CodeID]bool{},
			firstHello: nd.net.engine.Now(),
		}
		nd.responders[p.Sender] = rs
		nd.scheduleResponderReap(p.Sender, rs)
	}
	delay := sim.Time(0)
	if !rs.haveKey {
		delay = nd.keyDelay()
	}
	sender := p.Sender
	payload := p
	code := msg.Code
	// The verify span covers the key-derivation delay plus the MAC check;
	// verifyAuth1 closes it on every outcome.
	sp := nd.net.spanStart(nd.net.attemptSpanOf(sender), nd.index, int(sender), "dndp.auth1_verify")
	nd.net.engine.MustSchedule(delay, func() { nd.verifyAuth1(sender, payload, code, sp) })
}

func (nd *Node) verifyAuth1(sender ibc.NodeID, p wire.Auth, code codepool.CodeID, sp trace.SpanID) {
	if nd.down {
		nd.net.spanEnd(sp, nd.index, int(sender), "down")
		return
	}
	rs := nd.responders[sender]
	if rs == nil {
		nd.net.spanEnd(sp, nd.index, int(sender), "reaped")
		return
	}
	if !rs.haveKey {
		rs.key = nd.priv.SharedKey(sender)
		rs.haveKey = true
		nd.stats.KeyComputations++
	}
	nd.stats.MACVerifications++
	if !ibc.VerifyMAC(rs.key, p.MAC, idBytes(sender), p.Nonce) {
		nd.stats.MACFailures++
		nd.reportInvalid(code)
		nd.net.spanEnd(sp, nd.index, int(sender), "mac invalid")
		return
	}
	nd.net.spanEnd(sp, nd.index, int(sender), "verified")
	// The MAC checks out: remember the nonce so a recording of this frame
	// reinjected later (after this handshake record is reaped) is
	// recognized as a replay instead of re-opening the handshake.
	nd.recordNonce(sender, p.Nonce)
	if rs.nonce == nil {
		rs.nonce = nd.newNonce()
	}
	if !rs.accepted {
		rs.accepted = true
		nd.acceptNeighbor(sender, ViaDNDP, rs.key)
	}
	if rs.auth2Codes[code] {
		return
	}
	rs.auth2Codes[code] = true
	if rs.confirmSpan == 0 {
		// The confirm span tracks the AUTH2 in flight across nodes: it
		// closes only when the initiator renders a verdict, so one left
		// open is a handshake the jammer destroyed on the last message.
		rs.confirmSpan = nd.net.spanStart(nd.net.attemptSpanOf(sender), nd.index, int(sender), "dndp.confirm")
	}
	params := nd.net.params
	mac := ibc.MAC(rs.key, params.LenMAC/8, idBytes(nd.id), rs.nonce)
	_ = nd.net.send(nd.index, -1, radio.Message{
		Kind:        wire.KindAuth2,
		Code:        code,
		PayloadBits: params.LenID + params.LenNonce + params.LenMAC,
		Payload: wire.Auth{
			Sender: nd.id,
			Peer:   sender,
			Nonce:  append([]byte(nil), rs.nonce...),
			MAC:    mac,
		},
	})
}

// onAuth2 is the initiator's final step: verify the responder's MAC and
// accept it as an authenticated logical neighbor.
func (nd *Node) onAuth2(msg radio.Message) {
	p, ok := msg.Payload.(wire.Auth)
	if !ok || p.Peer != nd.id || p.Sender == nd.id {
		return
	}
	if !nd.holdsCode(msg.Code) {
		return
	}
	st := nd.initiator
	if st == nil {
		return
	}
	peer := st.peers[p.Sender]
	if peer == nil || !peer.haveKey || peer.done {
		return
	}
	nd.stats.MACVerifications++
	if !ibc.VerifyMAC(peer.key, p.MAC, idBytes(p.Sender), p.Nonce) {
		nd.stats.MACFailures++
		nd.reportInvalid(msg.Code)
		nd.net.endConfirmSpan(p.Sender, nd.id, "mac invalid")
		return
	}
	peer.done = true
	nd.net.endConfirmSpan(p.Sender, nd.id, "discovered")
	nd.acceptNeighbor(p.Sender, ViaDNDP, peer.key)
}

// idBytes encodes a NodeID for MAC/signature payloads.
func idBytes(id ibc.NodeID) []byte {
	return []byte{byte(id >> 8), byte(id)}
}
