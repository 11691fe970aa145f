package core

import (
	"repro/internal/codepool"
	"repro/internal/ibc"
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
		nonce: nd.newNonce(),
		peers: map[ibc.NodeID]*dndpInitiatorPeer{},
	}
	nd.initiator.attemptSpan = nd.net.spanStart(nd.net.engine.RunSpan(), nd.index, -1, "dndp.attempt")
	if _, ok := nd.net.initTime[nd.id]; !ok {
		nd.net.initTime[nd.id] = now
	}
	nd.dndpAttempts++
	nd.scheduleDNDPRetryCheck()
	th := sim.Time(nd.net.params.THello())
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
			_ = nd.net.send(nd.index, -1, wire.KindHello, c, wire.Hello{Initiator: nd.id}) // refused if crashed by now
		})
	}
}

// onHello is the responder path: collect HELLO copies per initiator, then
// CONFIRM on every shared code after the processing delay.
func (nd *Node) onHello(from int, code codepool.CodeID, p wire.Hello) {
	if p.Initiator == nd.id {
		return
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
		if rs = nd.openResponder(from, p.Initiator); rs == nil {
			return // transmitter exceeded its half-open budget
		}
	}
	if rs.accepted {
		return
	}
	if !rs.helloSeen[code] {
		rs.helloSeen[code] = true
		rs.helloCodes = append(rs.helloCodes, code)
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

// openResponder creates the responder record for initiator, charged to
// transmitter from's half-open budget; with retries on, the session
// timeout reaps it if it has not reached acceptance by then (e.g. its
// CONFIRM or the peer's AUTH1 was destroyed). It returns nil when the
// budget refuses the record.
func (nd *Node) openResponder(from int, initiator ibc.NodeID) *dndpResponderState {
	if !nd.admitHalfOpen(from) {
		return nil
	}
	rs := &dndpResponderState{
		helloSeen:  map[codepool.CodeID]bool{},
		auth2Codes: map[codepool.CodeID]bool{},
		firstHello: nd.net.engine.Now(),
	}
	nd.responders[initiator] = rs
	if nd.retryEnabled() {
		nd.reapAfterTimeout(func() bool {
			if nd.responders[initiator] != rs || rs.accepted {
				return false
			}
			delete(nd.responders, initiator)
			return true
		})
	}
	return rs
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
	for _, c := range codes {
		if nd.revoker.Revoked(c) {
			continue
		}
		_ = nd.net.send(nd.index, -1, wire.KindConfirm, c, wire.Confirm{Responder: nd.id, Initiator: initiator})
	}
}

// onConfirm is the initiator path: gather CONFIRM copies from a responder,
// then compute the pairwise key and send the first authentication message
// on every confirmed code.
func (nd *Node) onConfirm(code codepool.CodeID, p wire.Confirm) {
	if p.Initiator != nd.id || p.Responder == nd.id {
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
		if nd.retryEnabled() {
			// The round's retry check reaps half-open peers too; this
			// per-record timer covers peers created after the final check.
			// The closure captures copies: capturing the reassigned peer
			// would heap-allocate it on every CONFIRM, retries on or off.
			responder, ps := p.Responder, peer
			nd.reapAfterTimeout(func() bool {
				if nd.initiator != st || st.peers[responder] != ps || ps.done {
					return false // a newer round owns the peer table, or done
				}
				delete(st.peers, responder)
				return true
			})
		}
	}
	if peer.done {
		return
	}
	dup := false
	for _, c := range peer.confirmCodes {
		if c == code {
			dup = true
		}
	}
	if !dup {
		peer.confirmCodes = append(peer.confirmCodes, code)
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
	auth1 := nd.authMessage(responder, peer.key, st.nonce)
	for _, c := range peer.confirmCodes {
		_ = nd.net.send(nd.index, -1, wire.KindAuth1, c, auth1)
	}
}

// authMessage builds nd's authentication message to peer, AUTH1 or AUTH2:
// {ID, n, f_K(ID|n)}.
func (nd *Node) authMessage(peer ibc.NodeID, key [32]byte, nonce []byte) wire.Auth {
	return wire.Auth{
		Sender: nd.id,
		Peer:   peer,
		Nonce:  append([]byte(nil), nonce...),
		MAC:    ibc.MAC(key, nd.net.params.LenMAC/8, idBytes(nd.id), nonce),
	}
}

// checkAuth verifies an authentication message's f_K(ID|n) under key. An
// invalid MAC feeds the §V-D revocation counter of the code it came on.
func (nd *Node) checkAuth(key [32]byte, p wire.Auth, code codepool.CodeID) bool {
	nd.stats.MACVerifications++
	if ibc.VerifyMAC(key, p.MAC, idBytes(p.Sender), p.Nonce) {
		return true
	}
	nd.stats.MACFailures++
	nd.reportInvalid(code)
	return false
}

// onAuth1 is the responder's verification step: compute K_BA (first copy
// pays t_key), verify the MAC, accept the initiator, and answer with the
// second authentication message on the same code. Invalid MACs feed the
// §V-D revocation counters — this is the DoS-attack work the adversary can
// force with compromised codes.
func (nd *Node) onAuth1(from int, code codepool.CodeID, p wire.Auth) {
	if p.Peer != nd.id || p.Sender == nd.id {
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
		if rs = nd.openResponder(from, p.Sender); rs == nil {
			return
		}
	}
	delay := sim.Time(0)
	if !rs.haveKey {
		delay = nd.keyDelay()
	}
	sender := p.Sender
	// The verify span covers the key-derivation delay plus the MAC check;
	// verifyAuth1 closes it on every outcome.
	sp := nd.net.spanStart(nd.net.attemptSpanOf(sender), nd.index, int(sender), "dndp.auth1_verify")
	nd.net.engine.MustSchedule(delay, func() { nd.verifyAuth1(sender, p, code, sp) })
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
	if !nd.checkAuth(rs.key, p, code) {
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
	_ = nd.net.send(nd.index, -1, wire.KindAuth2, code, nd.authMessage(sender, rs.key, rs.nonce))
}

// onAuth2 is the initiator's final step: verify the responder's MAC and
// accept it as an authenticated logical neighbor.
func (nd *Node) onAuth2(code codepool.CodeID, p wire.Auth) {
	if p.Peer != nd.id || p.Sender == nd.id {
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
	if !nd.checkAuth(peer.key, p, code) {
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
