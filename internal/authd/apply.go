package authd

import (
	"fmt"
	"time"

	"repro/internal/codepool"
)

// The authority's state machine: one apply function per mutation kind.
// The live mutators (provision, join, revoke in authd.go) and boot replay
// (applyRecord in recover.go) change state only through these functions,
// so a replayed record runs the very transition that served the original
// request. Callers hold poolMu: its read side for provisions and revokes,
// its write side for joins.

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
func (s *Server) applyProvision(start, count int, tag string, at time.Time) ([]Assignment, error) {
	out := make([]Assignment, 0, count) //jrsnd:allow boundedalloc count is a claimSlots range or a replayed range applyRecord checked against N
	for node := start; node < start+count; node++ {
		codes, err := s.insertAssignment(node, tag, "provision", at)
		if err != nil {
			return nil, err
		}
		out = append(out, Assignment{Node: node, Codes: codes})
	}
	if end := int64(start + count); end > s.nextSlot.Load() {
		s.nextSlot.Store(end)
	}
	return out, nil
}

// applyJoin admits the next late node per §V-A — pool.Join, which runs a
// batch expansion (advancing the epoch) when the virtual-node slots are
// exhausted — and records its assignment. The caller holds poolMu's write
// lock.
func (s *Server) applyJoin(tag string, at time.Time) (Assignment, bool, error) {
	before := s.pool.Expansions()
	node, err := s.pool.Join(s.joinRng)
	if err != nil {
		return Assignment{}, false, fmt.Errorf("authd: %w", err)
	}
	expanded := s.pool.Expansions() > before
	codes, err := s.insertAssignment(node, tag, "join", at)
	if err != nil {
		return Assignment{}, false, err
	}
	return Assignment{Node: node, Codes: codes}, expanded, nil
}

// applyRevoke routes one invalid-code report through the Revoker,
// reporting whether this report crossed γ. The caller has checked that
// code lies in the pool.
func (s *Server) applyRevoke(code codepool.CodeID) bool {
	return s.rev.ReportInvalid(code)
}

// commit logs an applied live mutation and returns its WAL sequence. On a
// durable server the record is fsynced before commit returns — the
// acknowledgment implies it survives a crash; an in-memory server has
// nothing to log and returns sequence 0.
func (s *Server) commit(rec walRecord) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	return s.wal.append(rec)
}
