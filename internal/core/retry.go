package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ibc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Handshake retry/backoff state machine.
//
// The paper's protocols are described happy-path: a destroyed CONFIRM or
// AUTH message leaves both endpoints stuck with half-open per-peer state
// and no discovery. With a RetryConfig set, every handshake gets a
// per-session timeout: half-open state is garbage-collected when it ages
// past the timeout, the D-NDP initiator re-runs its HELLO sweep under
// randomized exponential backoff while physical neighbors with shared
// codes remain undiscovered, and — once the retry budget is exhausted (or
// no shared code can ever work) — the node degrades gracefully to M-NDP
// through the logical neighbors it does have.

// RetryConfig enables the handshake retry/backoff state machine. The zero
// value is invalid; use DefaultRetryConfig for parameter-derived defaults.
type RetryConfig struct {
	// SessionTimeout is the per-session half-open timeout: handshake state
	// (D-NDP responder/initiator-peer records, M-NDP pendings) that has not
	// completed within this span is reclaimed, and the D-NDP initiator
	// re-evaluates its neighborhood this long after each HELLO sweep. It
	// must exceed the worst-case handshake span or retries thrash.
	SessionTimeout sim.Time
	// MaxAttempts is the total D-NDP initiation budget per node (the first
	// attempt included). Must be >= 1.
	MaxAttempts int
	// BackoffBase scales the randomized exponential backoff before retry
	// k (k = 1 is the first retry): the delay is drawn uniformly from
	// [0, BackoffBase·2^(k-1)).
	BackoffBase sim.Time
	// FallbackToMNDP degrades gracefully once the D-NDP budget toward a
	// physical neighbor is exhausted: the node runs one M-NDP round through
	// its established logical neighbors.
	FallbackToMNDP bool
}

// DefaultRetryConfig derives a retry configuration from the parameter set:
// the session timeout covers several worst-case D-NDP handshake spans
// (HELLO sweep, processing delays, key computation, MAC round-trips), so
// a timeout never fires on a handshake that is merely slow.
func DefaultRetryConfig(p analysis.Params) *RetryConfig {
	span := float64(p.M)*p.THello() + 2*p.TProcess() + p.Lambda()*p.THello() +
		2*p.TKey + float64(p.Nu+1)*p.TVer + p.TSig
	timeout := sim.Time(4*span + 0.1)
	return &RetryConfig{
		SessionTimeout: timeout,
		MaxAttempts:    4,
		BackoffBase:    timeout / 2,
		FallbackToMNDP: true,
	}
}

// validate rejects configurations the state machine cannot run with.
func (c *RetryConfig) validate() error {
	if c == nil {
		return nil
	}
	if c.SessionTimeout <= 0 {
		return fmt.Errorf("retry: SessionTimeout %v must be positive", c.SessionTimeout)
	}
	if c.MaxAttempts < 1 {
		return fmt.Errorf("retry: MaxAttempts %d must be >= 1", c.MaxAttempts)
	}
	if c.BackoffBase < 0 {
		return fmt.Errorf("retry: BackoffBase %v must be >= 0", c.BackoffBase)
	}
	return nil
}

// retryEnabled reports whether the retry state machine is active.
func (nd *Node) retryEnabled() bool { return nd.net.cfg.Retry != nil }

// startDNDP is the harness-facing D-NDP entry point: it resets the retry
// budget and runs the first initiation. Retries go through initiateDNDP
// directly so the budget carries across rounds.
func (nd *Node) startDNDP() {
	nd.dndpAttempts = 0
	nd.initiateDNDP()
}

// scheduleDNDPRetryCheck arms the per-initiation timeout: one sweep span
// plus the session timeout after the HELLO sweep began, the initiator
// reaps half-open peers and decides whether to retry or fall back.
func (nd *Node) scheduleDNDPRetryCheck() {
	cfg := nd.net.cfg.Retry
	if cfg == nil {
		return
	}
	sweep := sim.Time(float64(nd.net.params.M) * nd.net.params.THello())
	nd.net.engine.MustSchedule(sweep+cfg.SessionTimeout, func() { nd.dndpRetryCheck() })
}

// dndpRetryCheck runs at each initiation timeout: reap this round's
// half-open initiator peers, then retry or degrade to M-NDP.
func (nd *Node) dndpRetryCheck() {
	if nd.down || nd.compromised {
		return
	}
	cfg := nd.net.cfg.Retry
	if st := nd.initiator; st != nil {
		for peer, ps := range st.peers {
			if !ps.done {
				delete(st.peers, peer)
				nd.net.m.onHalfOpenGC()
			}
		}
	}
	missingShared, missingAny := nd.undiscoveredPhysicalPeers()
	if missingAny == 0 {
		return
	}
	if missingShared > 0 && nd.dndpAttempts < cfg.MaxAttempts {
		retry := nd.dndpAttempts // k-th retry, 1-based
		shift := retry - 1
		if shift > 16 {
			shift = 16 // cap the exponential window; beyond this jitter dominates anyway
		}
		backoff := sim.Time(nd.rng.Float64()) * cfg.BackoffBase * sim.Time(uint64(1)<<uint(shift))
		nd.net.m.onRetry()
		nd.net.emit(trace.Event{
			At:     float64(nd.net.engine.Now()),
			Kind:   trace.KindRetry,
			Node:   nd.index,
			Peer:   -1,
			Detail: fmt.Sprintf("D-NDP retry %d/%d after backoff %.4fs (%d peers undiscovered)", retry, cfg.MaxAttempts-1, float64(backoff), missingShared),
		})
		nd.net.engine.MustSchedule(backoff, nd.initiateDNDP) // a no-op if nd is down by then
		return
	}
	// Budget exhausted toward at least one physical neighbor (or no shared
	// code can ever complete D-NDP): graceful degradation to M-NDP through
	// the logical neighbors we do have.
	if cfg.FallbackToMNDP && !nd.mndpFallback && len(nd.neighbors) > 0 {
		nd.mndpFallback = true
		nd.net.m.onFallback()
		nd.net.emit(trace.Event{
			At:     float64(nd.net.engine.Now()),
			Kind:   trace.KindRetry,
			Node:   nd.index,
			Peer:   -1,
			Detail: fmt.Sprintf("D-NDP budget exhausted, falling back to M-NDP (%d peers undiscovered)", missingAny),
		})
		nd.initiateMNDP()
	}
}

// undiscoveredPhysicalPeers counts live, honest physical neighbors that
// are not yet logical neighbors: those reachable by D-NDP (some mutually
// usable code) and the total (reachable by M-NDP regardless of codes).
func (nd *Node) undiscoveredPhysicalPeers() (shared, any int) {
	for _, v := range nd.net.graph.Adj[nd.index] {
		peer := nd.net.nodes[v]
		if peer.down || peer.compromised || nd.IsLogicalNeighbor(peer.id) {
			continue
		}
		any++
		if nd.sharesUsableCode(peer) {
			shared++
		}
	}
	return shared, any
}

// sharesUsableCode reports whether both endpoints still hold (and have not
// revoked) at least one common pool code.
func (nd *Node) sharesUsableCode(peer *Node) bool {
	for _, c := range nd.codes {
		if nd.holdsCode(c) && peer.holdsCode(c) {
			return true
		}
	}
	return false
}

// scheduleResponderReap garbage-collects a responder record that never
// reached acceptance within the session timeout (e.g. its CONFIRM or the
// peer's AUTH1 was destroyed).
func (nd *Node) scheduleResponderReap(initiator ibc.NodeID, rs *dndpResponderState) {
	cfg := nd.net.cfg.Retry
	if cfg == nil {
		return
	}
	nd.net.engine.MustSchedule(cfg.SessionTimeout, func() {
		if cur := nd.responders[initiator]; cur == rs && !cur.accepted {
			delete(nd.responders, initiator)
			nd.net.m.onHalfOpenGC()
		}
	})
}

// scheduleInitiatorPeerReap garbage-collects an initiator-side peer record
// that never completed mutual auth within the session timeout (e.g. the
// AUTH2 was destroyed). The round's periodic retry check reaps these too;
// this per-record timer covers peers created after the final check.
func (nd *Node) scheduleInitiatorPeerReap(st *dndpInitiatorState, responder ibc.NodeID, ps *dndpInitiatorPeer) {
	cfg := nd.net.cfg.Retry
	if cfg == nil {
		return
	}
	nd.net.engine.MustSchedule(cfg.SessionTimeout, func() {
		if nd.initiator != st {
			return // a newer round owns the peer table now
		}
		if cur := st.peers[responder]; cur == ps && !cur.done {
			delete(st.peers, responder)
			nd.net.m.onHalfOpenGC()
		}
	})
}

// scheduleMNDPReap garbage-collects a pending M-NDP exchange (beacon sent
// or awaited) that never completed within the session timeout.
func (nd *Node) scheduleMNDPReap(table map[ibc.NodeID]*mndpPending, peer ibc.NodeID, p *mndpPending) {
	cfg := nd.net.cfg.Retry
	if cfg == nil {
		return
	}
	nd.net.engine.MustSchedule(cfg.SessionTimeout, func() {
		if cur, ok := table[peer]; ok && cur == p {
			delete(table, peer)
			nd.net.m.onHalfOpenGC()
		}
	})
}

// HalfOpenOlderThan counts the node's half-open handshake records older
// than the given age: responder records without acceptance, initiator
// peers without completed mutual auth, and pending M-NDP exchanges. With
// age 0 it counts every half-open record. The chaos invariant checker
// asserts this is zero past the retry budget.
func (nd *Node) HalfOpenOlderThan(age sim.Time) int {
	now := nd.net.engine.Now()
	count := 0
	for _, rs := range nd.responders {
		if !rs.accepted && now-rs.firstHello > age {
			count++
		}
	}
	if st := nd.initiator; st != nil {
		for _, ps := range st.peers {
			if !ps.done && now-ps.firstConfirm > age {
				count++
			}
		}
	}
	for _, p := range nd.mndpOut {
		if now-p.initiatedAt > age {
			count++
		}
	}
	for _, p := range nd.mndpIn {
		if now-p.initiatedAt > age {
			count++
		}
	}
	return count
}
