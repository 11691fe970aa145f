package authd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/codepool"
)

// Replication, primary side. The authority's durability layer (wal.go,
// recover.go) already makes one instance a deterministic state machine:
// the WAL is a total order of mutations and replay drives the same code
// paths that served live traffic. Replication is that observation made
// continuous — a follower is a server whose only mutation source is the
// primary's acknowledged WAL stream, applied through the very replay path
// recovery uses, fsynced into its own WAL so that it is itself durable
// and promotable.
//
// The stream is pull-based: followers issue long-polling
// GET /v1/replicate?after=S&fp=F requests and receive the records after
// sequence S, each paired with the primary's state fingerprint at that
// record. The fingerprint is a chained hash folded, at append time, over
// each record's sequence, kind, and an order-independent observation of
// the state the mutation produced (assigned slots and their code sets,
// the join's node/epoch, the revoked code). A follower computes the same
// chain from its own state as it applies; any divergence — a different
// pool, a different code set, a stale unreplicated tail — is detected at
// the exact record where histories split, loudly, instead of surfacing
// later as a wrong answer. The follower's `fp` parameter lets the
// primary make the converse check before streaming: a follower whose
// fingerprint at `after` does not match the primary's history is told it
// is divergent and must re-bootstrap from a snapshot.
//
// Catch-up: the primary only buffers records since its last snapshot
// (the WAL-truncation point), so a follower lagging past one snapshot
// cadence is redirected to GET /v1/replicate/snapshot — the same
// checksummed image recovery boots from — and resumes the stream from
// the snapshot's sequence.
//
// Ack policy: each fetch carrying after=S is the follower's durable
// acknowledgment of every record ≤ S (it applied and logged them before
// asking for more). With Replication.MinSync = K > 0 the primary
// acknowledges a mutation to its client only after K followers have
// fetched past its sequence, so a promotion gated on "holds the full
// acknowledged prefix" can always be satisfied by the most advanced
// follower: acknowledged ⇒ replicated to ≥ K ≥ 1 followers, and
// followers hold gapless prefixes.

// Typed replication error taxonomy.
var (
	// ErrNotPrimary: a mutation reached a follower. The response carries
	// the current primary in the X-JRSND-Primary header; the client
	// retries there.
	ErrNotPrimary = errors.New("authd: not the primary")
	// ErrNoReplication: a replication endpoint was called on a
	// non-durable server (replication requires a WAL to stream).
	ErrNoReplication = errors.New("authd: replication requires a durable server")
	// ErrReplicaDiverged: applying a replicated record produced state
	// that does not match the primary's fingerprint. The replica poisons
	// itself rather than serve a second history.
	ErrReplicaDiverged = errors.New("authd: replica state diverged from primary")
	// ErrSyncTimeout: the mutation is durable on the primary but MinSync
	// followers did not acknowledge it in time. The client sees 503 and
	// may retry; the mutation was never acknowledged.
	ErrSyncTimeout = errors.New("authd: replication sync timeout")
	// ErrPromotionGate: a promotion request named a minimum sequence the
	// follower does not hold; promoting it would lose acknowledged
	// mutations.
	ErrPromotionGate = errors.New("authd: promotion refused")
)

// ReplicationConfig configures the primary's acknowledgment policy.
type ReplicationConfig struct {
	// MinSync is the number of followers that must durably hold a
	// mutation before it is acknowledged to the client. 0 (the default)
	// acknowledges after the local fsync only (asynchronous replication).
	MinSync int
	// SyncTimeout bounds the wait for MinSync follower acknowledgments;
	// 0 means 5 s. On timeout the mutation is durable locally but the
	// client gets 503 (ErrSyncTimeout) — it was not acknowledged.
	SyncTimeout time.Duration
}

const defaultSyncTimeout = 5 * time.Second

// Fingerprint chain: FNV-1a folded 64 bits at a time. The basis is the
// chain's starting value on an empty history.
const (
	fpBasis   = 14695981039346656037
	fpPrime64 = 1099511628211
)

// fpFold folds one 64-bit value into the chain, byte by byte.
func fpFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fpPrime64
		v >>= 8
	}
	return h
}

// Observation digests: an order-independent 64-bit reduction of what one
// mutation did to the state machine, computed identically by the live
// mutation path (primary) and the replay path (recovery, followers).
// Only order-independent facts are folded — concurrent provisions and
// revokes append to the WAL in an order the lock does not fix, so a
// per-record observation must not depend on its neighbors. Joins run
// under the pool write lock and may fold the epoch they produced.

func obsProvision(start int, assigned []Assignment) uint64 {
	h := fpFold(uint64(fpBasis), uint64(walProvision))
	h = fpFold(h, uint64(start))
	h = fpFold(h, uint64(len(assigned)))
	for _, a := range assigned {
		for _, c := range a.Codes {
			h = fpFold(h, uint64(uint32(c)))
		}
	}
	return h
}

func obsJoin(node int, expanded bool, epochAfter int, codes []codepool.CodeID) uint64 {
	h := fpFold(uint64(fpBasis), uint64(walJoin))
	h = fpFold(h, uint64(node))
	if expanded {
		h = fpFold(h, 1)
	} else {
		h = fpFold(h, 0)
	}
	h = fpFold(h, uint64(epochAfter))
	for _, c := range codes {
		h = fpFold(h, uint64(uint32(c)))
	}
	return h
}

func obsRevoke(code int32) uint64 {
	h := fpFold(uint64(fpBasis), uint64(walRevoke))
	return fpFold(h, uint64(uint32(code)))
}

// replEntry is one acknowledged record held for streaming: its sequence,
// the chain fingerprint *after* applying it, and its canonical frame.
type replEntry struct {
	seq   uint64
	fp    uint64
	frame []byte
}

// replTracker is the primary's replication state: the fingerprint chain,
// the record buffer since the last snapshot (the streamable window), and
// the per-follower acknowledgment watermarks the MinSync policy waits on.
// It is maintained on every durable server — follower or primary — so a
// freshly promoted follower can stream to the remaining replicas without
// any hand-off.
type replTracker struct {
	mu      sync.Mutex
	baseSeq uint64 // sequence the local snapshot covers (buffer starts after)
	baseFP  uint64 // chain fingerprint at baseSeq
	fp      uint64 // chain fingerprint at the last buffered sequence
	entries []replEntry
	acks    map[string]uint64 // follower ID → highest durably-held sequence

	// Close-and-replace broadcast channels: appendCh wakes long-polling
	// fetches when a record lands, ackCh wakes MinSync waiters when a
	// follower advances.
	appendCh chan struct{}
	ackCh    chan struct{}
}

func newReplTracker() *replTracker {
	return &replTracker{
		baseFP:   fpBasis,
		fp:       fpBasis,
		acks:     map[string]uint64{},
		appendCh: make(chan struct{}),
		ackCh:    make(chan struct{}),
	}
}

// reset seeds the chain from a restored snapshot (or leaves the cold
// basis when seq is 0).
func (t *replTracker) reset(seq, fp uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.baseSeq, t.baseFP, t.fp = seq, fp, fp
	t.entries = t.entries[:0]
}

// extend chains one appended record. frame is copied; seq must continue
// the buffer without a gap (the WAL's own invariant, re-asserted here).
func (t *replTracker) extend(seq uint64, kind walKind, frame []byte, obs uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := t.baseSeq + uint64(len(t.entries))
	if seq != last+1 {
		// The WAL enforces contiguous sequences before this is reached; a
		// gap here is a programming error, not input.
		panic(fmt.Sprintf("authd: replication buffer gap: seq %d after %d", seq, last))
	}
	fp := fpFold(t.fp, seq)
	fp = fpFold(fp, uint64(kind))
	fp = fpFold(fp, obs)
	t.fp = fp
	t.entries = append(t.entries, replEntry{seq: seq, fp: fp, frame: append([]byte(nil), frame...)})
	close(t.appendCh)
	t.appendCh = make(chan struct{})
}

// compact drops buffered records a durable snapshot now covers.
func (t *replTracker) compact(seq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq <= t.baseSeq {
		return
	}
	n := int(seq - t.baseSeq)
	if n > len(t.entries) {
		n = len(t.entries)
	}
	if n > 0 {
		t.baseFP = t.entries[n-1].fp
		t.entries = append(t.entries[:0], t.entries[n:]...)
	}
	t.baseSeq = seq
}

// chainFP returns the fingerprint at the last known sequence.
func (t *replTracker) chainFP() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fp
}

// appendChan returns the current broadcast channel, closed by the next
// extend. Long-polling fetchers capture it BEFORE their first fetch so an
// append landing between fetch and wait still wakes them.
func (t *replTracker) appendChan() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendCh
}

// lastSeq returns the highest buffered (or snapshot-covered) sequence.
func (t *replTracker) lastSeq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.baseSeq + uint64(len(t.entries))
}

// Fetch statuses, the first byte of a /v1/replicate response.
const (
	replOK             = 0 // records follow (possibly zero)
	replSnapshotNeeded = 1 // `after` precedes the buffered window; bootstrap from snapshot
	replDivergent      = 2 // the follower's fingerprint does not match this history
)

// fetch returns up to max records after `after`, verifying the caller's
// fingerprint against this server's history at that sequence.
func (t *replTracker) fetch(after, callerFP uint64, max int) (status int, ents []replEntry, lastSeq, snapSeq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lastSeq = t.baseSeq + uint64(len(t.entries))
	snapSeq = t.baseSeq
	switch {
	case after < t.baseSeq:
		return replSnapshotNeeded, nil, lastSeq, snapSeq
	case after > lastSeq:
		// The follower claims records this history never produced — a
		// stale tail from a dead primary. It must re-bootstrap.
		return replDivergent, nil, lastSeq, snapSeq
	case t.fpAtLocked(after) != callerFP:
		return replDivergent, nil, lastSeq, snapSeq
	}
	from := int(after - t.baseSeq)
	avail := t.entries[from:]
	if len(avail) > max {
		avail = avail[:max]
	}
	// Entries are append-only until compact; returning subslices is safe
	// because compact copies survivors into a fresh prefix while holding mu
	// and fetch callers only read frames they received under this lock.
	ents = append([]replEntry(nil), avail...)
	return replOK, ents, lastSeq, snapSeq
}

// fpAtLocked returns the chain fingerprint at seq; caller holds mu and
// has bounds-checked seq into [baseSeq, lastSeq].
func (t *replTracker) fpAtLocked(seq uint64) uint64 {
	if seq == t.baseSeq {
		return t.baseFP
	}
	return t.entries[seq-t.baseSeq-1].fp
}

// recordAck advances one follower's durable watermark. Regressions are
// ignored — a follower that re-bootstrapped from a snapshot re-acks from
// the snapshot point, which never un-acknowledges anything it held.
func (t *replTracker) recordAck(id string, seq uint64) {
	if id == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq > t.acks[id] {
		t.acks[id] = seq
		close(t.ackCh)
		t.ackCh = make(chan struct{})
	}
}

// ackedBy counts followers whose watermark covers seq.
func (t *replTracker) ackedBy(seq uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.acks {
		if s >= seq {
			n++
		}
	}
	return n
}

// followerAcks snapshots the watermark table for the status endpoint.
func (t *replTracker) followerAcks() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.acks))
	for id, s := range t.acks {
		out[id] = s
	}
	return out
}

// waitSynced blocks until minSync followers acknowledge seq, the timeout
// elapses (ErrSyncTimeout), or done closes.
func (t *replTracker) waitSynced(done <-chan struct{}, seq uint64, minSync int, timeout time.Duration) error {
	timer := time.NewTimer(timeout) //jrsnd:allow wallclock bounds the real-time wait for follower acknowledgments of a live HTTP mutation; never runs under the simulator
	defer timer.Stop()
	for {
		t.mu.Lock()
		n := 0
		for _, s := range t.acks {
			if s >= seq {
				n++
			}
		}
		ch := t.ackCh
		t.mu.Unlock()
		if n >= minSync {
			return nil
		}
		select {
		case <-ch:
		case <-timer.C:
			return fmt.Errorf("%w: %d/%d follower acks for seq %d after %v", ErrSyncTimeout, n, minSync, seq, timeout)
		case <-done:
			return fmt.Errorf("%w: request cancelled with %d/%d follower acks for seq %d", ErrSyncTimeout, n, minSync, seq)
		}
	}
}

// waitAppend blocks until a record lands after the given channel was
// observed, or the timeout elapses. Used by the long-polling fetch.
func waitAppend(ch <-chan struct{}, timeout time.Duration) {
	timer := time.NewTimer(timeout) //jrsnd:allow wallclock bounds the long-poll window of a live replication fetch; never runs under the simulator
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
	}
}

// Fetch response wire format (big-endian), in the bounded-decode style of
// the WAL codec:
//
//	byte  0      status (replOK | replSnapshotNeeded | replDivergent)
//	bytes 1..8   u64 primary last sequence
//	bytes 9..16  u64 primary snapshot sequence (buffer base)
//	bytes 17..20 u32 record count (0 unless status == replOK)
//	per record:  u64 fp | u32 frameLen | frame (a WAL record)
const (
	replRespHeaderLen = 21
	// replMaxBatch caps one fetch's record count before any allocation.
	replMaxBatch = 4096
	// replMaxFrame bounds one streamed frame: a WAL header plus the
	// maximum body the WAL codec itself accepts.
	replMaxFrame = walHeaderLen + walMaxBody
	// replMaxResp bounds a whole fetch response read.
	replMaxResp = 1 << 26
	// replMaxWait caps the server-side long-poll window.
	replMaxWait = 2 * time.Second
)

// encodeReplResponse renders a fetch response.
func encodeReplResponse(status int, lastSeq, snapSeq uint64, ents []replEntry) []byte {
	size := replRespHeaderLen
	for _, e := range ents {
		size += 12 + len(e.frame)
	}
	out := make([]byte, 0, size) //jrsnd:allow boundedalloc sized by our own replication buffer entries (each bounded by walMaxBody on append), not by untrusted wire input
	out = append(out, byte(status))
	out = binary.BigEndian.AppendUint64(out, lastSeq)
	out = binary.BigEndian.AppendUint64(out, snapSeq)
	out = binary.BigEndian.AppendUint32(out, uint32(len(ents)))
	for _, e := range ents {
		out = binary.BigEndian.AppendUint64(out, e.fp)
		out = binary.BigEndian.AppendUint32(out, uint32(len(e.frame)))
		out = append(out, e.frame...)
	}
	return out
}

// replBatch is a decoded fetch response on the follower side.
type replBatch struct {
	status  int
	lastSeq uint64
	snapSeq uint64
	entries []replEntry // frames reference the response buffer
}

var errReplResponse = errors.New("authd: replication response")

// decodeReplResponse parses a fetch response with the usual discipline:
// counts and lengths are checked against the remaining bytes before any
// use, frames are sub-slices of data (no copy), trailing bytes are an
// error.
func decodeReplResponse(data []byte) (replBatch, error) {
	var b replBatch
	c := &cursor{data: data, base: errReplResponse}
	b.status = int(c.u8())
	if c.err == nil && b.status != replOK && b.status != replSnapshotNeeded && b.status != replDivergent {
		c.failf("status %d", b.status)
	}
	b.lastSeq, b.snapSeq = c.u64(), c.u64()
	// A record is at least 12 bytes: fingerprint and frame length.
	n := c.count(12, "records")
	if n > replMaxBatch {
		c.failf("declares %d records > %d", n, replMaxBatch)
	}
	for i := 0; i < n && c.err == nil; i++ {
		fp, frameLen := c.u64(), int(c.u32())
		if frameLen > replMaxFrame {
			c.failf("record %d declares %d frame bytes > %d", i, frameLen, replMaxFrame)
		}
		b.entries = append(b.entries, replEntry{fp: fp, frame: c.take(frameLen)})
	}
	return b, c.done()
}

// ReplicationStatus answers GET /v1/replication — the role, stream
// position, and fingerprint a harness (or a follower probing for the
// primary) needs.
type ReplicationStatus struct {
	Role    string `json:"role"` // "primary" or "follower"
	Durable bool   `json:"durable"`
	LastSeq uint64 `json:"last_seq"`
	SnapSeq uint64 `json:"snap_seq"`
	// FP is the hex state fingerprint at LastSeq; two replicas with equal
	// (LastSeq, FP) hold identical histories.
	FP string `json:"fp"`
	// Primary is the follower's current upstream (follower role only).
	Primary string `json:"primary,omitempty"`
	// LagRecords is the follower's last observed distance behind its
	// primary (follower role only).
	LagRecords int64 `json:"lag_records"`
	// Followers maps follower IDs to their acknowledged sequence
	// (primary role only).
	Followers map[string]uint64 `json:"followers,omitempty"`
}

// PromoteRequest asks a follower to become the primary. MinSeq is the
// highest sequence any client saw acknowledged; a follower that does not
// hold it refuses (the promotion gate) — promoting it would lose
// acknowledged mutations.
type PromoteRequest struct {
	MinSeq uint64 `json:"min_seq"`
}

// PromoteResponse reports the post-promotion state.
type PromoteResponse struct {
	Role    string `json:"role"`
	LastSeq uint64 `json:"last_seq"`
}

// PauseRequest toggles a follower's replication pull loop — the harness's
// asymmetric partition (the follower cannot reach the primary; the
// primary, which never dials, is unaffected).
type PauseRequest struct {
	Paused bool `json:"paused"`
}

// applyReplicated applies one streamed record through the recovery path,
// logs it to the local WAL, and verifies the resulting fingerprint
// against the primary's. Any mismatch poisons the server: a replica that
// diverged must not serve (or later be promoted into) a second history.
func (s *Server) applyReplicated(frame []byte, wantFP uint64) error {
	rec, n, err := parseWALRecord(frame)
	if err != nil {
		return err
	}
	if n != len(frame) {
		return fmt.Errorf("%w: replicated frame has %d trailing bytes", ErrWALCorrupt, len(frame)-n)
	}
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if s.wal == nil {
		return ErrNoReplication
	}
	if next := s.wal.lastSeq() + 1; rec.Seq != next {
		return fmt.Errorf("%w: replicated record seq %d, expected %d", ErrWALCorrupt, rec.Seq, next)
	}
	obs, err := s.applyRecord(rec)
	if err != nil {
		s.m.divergencePanics.Inc()
		s.poison(err)
		return fmt.Errorf("%w: %v", ErrReplicaDiverged, err)
	}
	// Count the record before the WAL append publishes its sequence to the
	// replication tracker: whoever sees the follower at seq S then also
	// sees S applied records in /metrics.
	s.m.replApplied.Inc()
	if _, err := s.wal.append(rec, obs); err != nil {
		return err
	}
	if fp := s.repl.chainFP(); fp != wantFP {
		err := fmt.Errorf("%w: fingerprint %016x != primary %016x at seq %d", ErrReplicaDiverged, fp, wantFP, rec.Seq)
		s.m.divergencePanics.Inc()
		s.poison(err)
		return err
	}
	return nil
}

// waitReplicated enforces the MinSync policy for one acknowledged-local
// mutation; a no-op on asynchronous or non-durable servers and on
// followers (whose mutations arrive pre-acknowledged).
func (s *Server) waitReplicated(done <-chan struct{}, seq uint64) error {
	rc := s.cfg.Replication
	if s.repl == nil || rc.MinSync <= 0 || seq == 0 || s.isFollower() {
		return nil
	}
	timeout := rc.SyncTimeout
	if timeout <= 0 {
		timeout = defaultSyncTimeout
	}
	return s.repl.waitSynced(done, seq, rc.MinSync, timeout)
}

// Role management. A server is born primary unless Config.Follower is
// set; BecomePrimary flips a follower after its manager has stopped the
// pull loop (the promotion path).

func (s *Server) isFollower() bool { return s.followerRole.Load() }

// BecomePrimary switches the server into the primary role. The caller
// (Follower.promote) has already verified the promotion gate and stopped
// the replication pull loop.
func (s *Server) BecomePrimary() {
	s.followerRole.Store(false)
	s.m.rolePrimary.Set(1)
	s.m.roleFollower.Set(0)
}

// setPrimaryHint records the upstream primary a follower redirects
// mutations to.
func (s *Server) setPrimaryHint(url string) {
	s.primaryHint.Store(url)
}

func (s *Server) getPrimaryHint() string {
	if v := s.primaryHint.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// replicationStatus assembles the GET /v1/replication payload.
func (s *Server) replicationStatus() ReplicationStatus {
	st := ReplicationStatus{Role: "primary", Durable: s.wal != nil}
	if s.isFollower() {
		st.Role = "follower"
		st.Primary = s.getPrimaryHint()
		st.LagRecords = s.replLag.Load()
	}
	if s.repl != nil {
		st.LastSeq = s.repl.lastSeq()
		st.SnapSeq = s.snapSeq.Load()
		st.FP = fmt.Sprintf("%016x", s.repl.chainFP())
		if !s.isFollower() {
			st.Followers = s.repl.followerAcks()
		}
	}
	return st
}
