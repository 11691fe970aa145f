package core

import (
	"repro/internal/analysis"
	"repro/internal/ibc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Byzantine-input defenses. The wire codec makes hostile bytes *parse*
// safely; this layer makes well-formed hostile frames *ineffective*:
//
//   - A sliding replay window per peer remembers the nonces of recently
//     verified AUTH messages. A replayed valid handshake frame — captured
//     on the air and reinjected after the victim's handshake record was
//     reaped — would otherwise force a fresh key computation, MAC
//     verification, and a spurious re-acceptance. The window drops it at
//     the door (`replays_dropped`).
//   - A per-transmitter token bucket caps how fast any single radio can
//     make this node create new half-open handshake records (HELLO or
//     unsolicited AUTH1). The §V-D flood forges a fresh sender identity
//     per injection, so per-sender-ID limiting is useless; the transmitter
//     index models the physical radio the frames actually come from
//     (`ratelimited`). Refill runs on virtual time, so the limiter is
//     deterministic.
//
// Both defenses hold volatile per-node state and are wiped by a crash,
// like every other protocol table.

// The half-open token bucket admits an honest node's handshake burst (one
// HELLO record plus one AUTH1 record per round) with an order of magnitude
// of headroom: halfOpenRate records per virtual second sustained, and
// halfOpenBurst back-to-back before the rate applies.
const (
	halfOpenRate  = 16
	halfOpenBurst = 8
)

// DefenseConfig enables the replay window and half-open rate limiter.
// A nil config (the NetworkConfig default) disables both, preserving the
// seed engine's behavior. Build one with DefaultDefenseConfig.
type DefenseConfig struct {
	// replayWindow is how many verified AUTH nonces are remembered per
	// peer ID before the oldest is forgotten.
	replayWindow int
}

// DefaultDefenseConfig sizes the defenses for the Table I parameter set:
// the replay window comfortably covers a full x-sub-session redundancy
// round (≤ m codes) per peer.
func DefaultDefenseConfig(p analysis.Params) *DefenseConfig {
	return &DefenseConfig{replayWindow: max(4*p.M, 64)}
}

// nonceWindow is a per-peer sliding window of verified AUTH nonces: a set
// for O(1) membership plus a FIFO ring for eviction.
type nonceWindow struct {
	seen  map[string]bool
	order []string
	next  int // ring cursor once full
	cap   int
}

func newNonceWindow(capacity int) *nonceWindow {
	return &nonceWindow{seen: make(map[string]bool, capacity), cap: capacity}
}

// contains reports whether nonce was verified recently.
func (w *nonceWindow) contains(nonce []byte) bool { return w.seen[string(nonce)] }

// record remembers a verified nonce, evicting the oldest when full. The
// string conversion copies, so the window never aliases a frame buffer.
func (w *nonceWindow) record(nonce []byte) {
	key := string(nonce)
	if w.seen[key] {
		return
	}
	if len(w.order) < w.cap {
		w.order = append(w.order, key)
	} else {
		delete(w.seen, w.order[w.next])
		w.order[w.next] = key
		w.next = (w.next + 1) % w.cap
	}
	w.seen[key] = true
}

// tokenBucket is a deterministic virtual-time token bucket of depth
// halfOpenBurst, refilled at halfOpenRate.
type tokenBucket struct {
	tokens float64
	last   sim.Time
}

// allow refills by elapsed virtual time and spends one token if available.
func (b *tokenBucket) allow(now sim.Time) bool {
	if now > b.last {
		b.tokens += float64(now-b.last) * halfOpenRate
		if b.tokens > halfOpenBurst {
			b.tokens = halfOpenBurst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// defenseOn reports whether the Byzantine defenses are configured.
func (nd *Node) defenseOn() bool { return nd.net.cfg.Defense != nil }

// replaySeen reports whether peer's AUTH nonce is inside the replay
// window — i.e. this exact handshake material was already verified once.
func (nd *Node) replaySeen(peer ibc.NodeID, nonce []byte) bool {
	if !nd.defenseOn() || len(nonce) == 0 {
		return false
	}
	w := nd.seenNonces[peer]
	if w == nil || !w.contains(nonce) {
		return false
	}
	nd.net.m.replaysDropped.Inc()
	nd.net.emit(trace.KindDrop, nd.index, int(peer), "replayed AUTH nonce inside the replay window")
	return true
}

// recordNonce remembers a verified AUTH nonce for the replay window.
func (nd *Node) recordNonce(peer ibc.NodeID, nonce []byte) {
	if !nd.defenseOn() || len(nonce) == 0 {
		return
	}
	w := nd.seenNonces[peer]
	if w == nil {
		w = newNonceWindow(nd.net.cfg.Defense.replayWindow)
		nd.seenNonces[peer] = w
	}
	w.record(nonce)
}

// admitHalfOpen charges transmitter `from`'s token bucket for creating a
// new handshake record on this node; false means the record must not be
// created (the transmitter exceeded its half-open budget).
func (nd *Node) admitHalfOpen(from int) bool {
	if !nd.defenseOn() || from == nd.index {
		return true
	}
	now := nd.net.engine.Now()
	b := nd.buckets[from]
	if b == nil {
		b = &tokenBucket{tokens: halfOpenBurst, last: now}
		nd.buckets[from] = b
	}
	if b.allow(now) {
		return true
	}
	nd.net.m.ratelimited.Inc()
	nd.net.emit(trace.KindDrop, nd.index, from, "half-open budget exceeded: handshake record refused")
	return false
}

// resetDefenses wipes the volatile defense state (crash semantics).
func (nd *Node) resetDefenses() {
	nd.seenNonces = map[ibc.NodeID]*nonceWindow{}
	nd.buckets = map[int]*tokenBucket{}
}
