package core

import (
	"fmt"

	"repro/internal/analysis"
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

// maxDNDPAttempts is the D-NDP initiation budget per node, the first
// attempt included. Once it is spent toward a physical neighbor, the node
// falls back to one M-NDP round through its established logical neighbors.
const maxDNDPAttempts = 4

// RetryConfig enables the handshake retry/backoff state machine. The zero
// value is invalid; use DefaultRetryConfig for parameter-derived defaults.
type RetryConfig struct {
	// SessionTimeout is the per-session half-open timeout: handshake state
	// (D-NDP responder/initiator-peer records, M-NDP pendings) that has not
	// completed within this span is reclaimed, and the D-NDP initiator
	// re-evaluates its neighborhood this long after each HELLO sweep. It
	// must exceed the worst-case handshake span or retries thrash. Half of
	// it scales the randomized exponential backoff: retry k (k = 1 is the
	// first) waits a delay drawn uniformly from [0, SessionTimeout/2·2^(k-1)).
	SessionTimeout sim.Time
}

// DefaultRetryConfig derives a retry configuration from the parameter set:
// the session timeout covers several worst-case D-NDP handshake spans
// (HELLO sweep, processing delays, key computation, MAC round-trips), so
// a timeout never fires on a handshake that is merely slow.
func DefaultRetryConfig(p analysis.Params) *RetryConfig {
	span := float64(p.M)*p.THello() + 2*p.TProcess() + p.Lambda()*p.THello() +
		2*p.TKey + float64(p.Nu+1)*p.TVer + p.TSig
	return &RetryConfig{SessionTimeout: sim.Time(4*span + 0.1)}
}

// validate rejects configurations the state machine cannot run with.
func (c *RetryConfig) validate() error {
	if c == nil {
		return nil
	}
	if c.SessionTimeout <= 0 {
		return fmt.Errorf("retry: SessionTimeout %v must be positive", c.SessionTimeout)
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
				nd.net.m.halfOpenGC.Inc()
			}
		}
	}
	missingShared, missingAny := nd.undiscoveredPhysicalPeers()
	if missingAny == 0 {
		return
	}
	if missingShared > 0 && nd.dndpAttempts < maxDNDPAttempts {
		retry := nd.dndpAttempts // k-th retry, 1-based
		backoff := sim.Time(nd.rng.Float64()) * (cfg.SessionTimeout / 2) * sim.Time(uint64(1)<<uint(retry-1))
		nd.net.m.retries.Inc()
		nd.net.emit(trace.KindRetry, nd.index, -1, fmt.Sprintf("D-NDP retry %d/%d after backoff %.4fs (%d peers undiscovered)", retry, maxDNDPAttempts-1, float64(backoff), missingShared))
		nd.net.engine.MustSchedule(backoff, nd.initiateDNDP) // a no-op if nd is down by then
		return
	}
	// Budget exhausted toward at least one physical neighbor (or no shared
	// code can ever complete D-NDP): graceful degradation to M-NDP through
	// the logical neighbors we do have.
	if !nd.mndpFallback && len(nd.neighbors) > 0 {
		nd.mndpFallback = true
		nd.net.m.fallbacks.Inc()
		nd.net.emit(trace.KindRetry, nd.index, -1, fmt.Sprintf("D-NDP budget exhausted, falling back to M-NDP (%d peers undiscovered)", missingAny))
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

// reapAfterTimeout is the one half-open garbage collector: once the
// session timeout has passed, reap removes its handshake record if the
// record is still half-open and reports whether it did, which counts one
// half-open GC. Call it only with retries enabled, and build the reap
// closure only there, so retry-off runs allocate nothing for it.
func (nd *Node) reapAfterTimeout(reap func() bool) {
	nd.net.engine.MustSchedule(nd.net.cfg.Retry.SessionTimeout, func() {
		if reap() {
			nd.net.m.halfOpenGC.Inc()
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
