package authd

import (
	"fmt"
	"time"

	"repro/internal/codepool"
)

// The authority's state machine: one apply function per mutation kind.
// The live mutators (provision, join, revoke in authd.go) and boot replay
// (applyRecord in recover.go) change state only through these functions,
// and each returns the observation digest the fingerprint chain folds
// (see fpFold below) — so a replayed record runs the very transition, and
// computes the very digest, that served the original request. Callers
// hold poolMu: its read side for provisions and revokes, its write side
// for joins.

// insertAssignment registers node's pool code set as its assignment: the
// one place an assignment record is built, shared by the mutations below
// and by snapshot restore. A double assignment means memory has diverged
// from anything the log can reconstruct, so it poisons the durable layer.
func (s *Server) insertAssignment(node int, tag, via string, at time.Time) ([]codepool.CodeID, error) {
	codes := s.pool.Codes(node)
	if err := s.reg.insert(node, record{Codes: codes, Tag: tag, Via: via, At: at}); err != nil {
		s.poison(err)
		return nil, err
	}
	return codes, nil
}

// applyProvision records the assignments of deployment slots
// [start, start+count) and advances the slot cursor past them. A live
// claim has already moved the cursor at least that far, so the advance
// only takes effect on replay.
func (s *Server) applyProvision(start, count int, tag string, at time.Time) ([]Assignment, uint64, error) {
	out := make([]Assignment, 0, count) //jrsnd:allow boundedalloc count is a claimSlots range or a replayed range applyRecord checked against N
	for node := start; node < start+count; node++ {
		codes, err := s.insertAssignment(node, tag, "provision", at)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, Assignment{Node: node, Codes: codes})
	}
	if end := int64(start + count); end > s.nextSlot.Load() {
		s.nextSlot.Store(end)
	}
	return out, obsProvision(start, out), nil
}

// applyJoin admits the next late node per §V-A — pool.Join, which runs a
// batch expansion (advancing the epoch) when the virtual-node slots are
// exhausted — and records its assignment. The caller holds poolMu's write
// lock.
func (s *Server) applyJoin(tag string, at time.Time) (Assignment, bool, uint64, error) {
	before := s.pool.Expansions()
	node, err := s.pool.Join(s.joinRng)
	if err != nil {
		return Assignment{}, false, 0, fmt.Errorf("authd: %w", err)
	}
	expanded := s.pool.Expansions() > before
	codes, err := s.insertAssignment(node, tag, "join", at)
	if err != nil {
		return Assignment{}, false, 0, err
	}
	return Assignment{Node: node, Codes: codes}, expanded, obsJoin(node, expanded, s.pool.Expansions(), codes), nil
}

// applyRevoke routes one invalid-code report through the Revoker,
// reporting whether this report crossed γ. The caller has checked that
// code lies in the pool.
func (s *Server) applyRevoke(code codepool.CodeID) (bool, uint64) {
	return s.rev.ReportInvalid(code), obsRevoke(int32(code))
}

// commit logs an applied live mutation and returns its WAL sequence. On a
// durable server the record is fsynced before commit returns — the
// acknowledgment implies it survives a crash; an in-memory server has
// nothing to log and returns sequence 0.
func (s *Server) commit(rec walRecord, obs uint64) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	return s.wal.append(rec, obs)
}

// Fingerprint chain: one 64-bit FNV-1a value folded, at append time, over
// each record's sequence, kind and observation digest (wal.appendLocked;
// replayWAL folds the recovered records the same way). Every snapshot
// stores the chain at its sequence, and stateFingerprint includes it, so
// a recovery that rebuilt a different state than the live server held
// shows up as a different chain. The basis is the chain's value on an
// empty history.
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

// fpRecord extends the chain by one logged record.
func fpRecord(h, seq uint64, kind walKind, obs uint64) uint64 {
	h = fpFold(h, seq)
	h = fpFold(h, uint64(kind))
	return fpFold(h, obs)
}

// Observation digests: an order-independent 64-bit reduction of what one
// mutation did to the state, computed identically by the live mutation
// path and by replay. Only order-independent facts are folded — concurrent
// provisions and revokes append to the WAL in an order the lock does not
// fix, so a per-record observation must not depend on its neighbors.
// Joins run under the pool write lock and may fold the epoch they
// produced.

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
