package authd

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/codepool"
)

// Startup recovery: load the latest durable snapshot (if any), replay the
// WAL suffix it does not cover, and leave the log open for appending.
// Replay is deterministic and self-checking — every record runs through
// the same per-kind apply function that served the live request
// (apply.go: pool.Join with the same RNG, the registry insert with its
// double-assignment check) and every logged join carries the node index
// the live system acknowledged, so a replay that diverges by even one slot
// fails loudly instead of resurrecting a different history.
//
// Torn-tail rule: a record the crash tore mid-write is truncated away and
// recovery proceeds — those bytes were never acknowledged. A damaged
// record with valid records *after* it is different: some acknowledged
// mutation would be silently skipped, so recovery refuses (ErrWALCorrupt)
// and the operator keeps the evidence.

// Durability configures the durable layer. The zero value (empty Dir)
// leaves the server fully in-memory, exactly as before this layer
// existed.
type Durability struct {
	// Dir is the data directory (WAL, snapshot, identity file). Created
	// if missing. Empty disables durability.
	Dir string
	// SnapshotEvery snapshots + truncates after this many acknowledged
	// mutations. 0 selects the default (4096); negative disables
	// automatic snapshots (explicit Snapshot() still works).
	SnapshotEvery int
	// CrashHook is the crash-fault injection hook (crash harness only);
	// nil in production.
	CrashHook CrashHook
}

const defaultSnapshotEvery = 4096

// metaMagic heads the identity file written on first boot of a data
// directory; reopening with different parameters or a different seed
// would silently rebuild a different pool, so it is refused instead.
const metaMagic = "JRSNDMETA1"

// openDurable recovers state from d.Dir into the freshly constructed
// server and opens the WAL for appending. Called from New, before the
// server is reachable.
func (s *Server) openDurable(d Durability) error {
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return fmt.Errorf("authd: data dir: %w", err)
	}
	s.dataDir = d.Dir
	s.crashHook = d.CrashHook
	s.snapEvery = d.SnapshotEvery
	if s.snapEvery == 0 {
		s.snapEvery = defaultSnapshotEvery
	}
	if err := s.checkMeta(); err != nil {
		return err
	}
	// A leftover snapshot.tmp is a snapshot the crash interrupted before
	// the atomic rename; it was never the live image.
	_ = os.Remove(filepath.Join(d.Dir, snapTmpName))

	// The fingerprint chain starts from the basis on an empty history, or
	// from the value the snapshot stored at its sequence.
	var snapSeq uint64
	snapFP := uint64(fpBasis)
	snapData, err := os.ReadFile(filepath.Join(d.Dir, snapFileName))
	switch {
	case os.IsNotExist(err):
		// cold start or WAL-only directory
	case err != nil:
		return fmt.Errorf("authd: read snapshot: %w", err)
	default:
		st, err := decodeSnapshot(snapData)
		if err != nil {
			return err
		}
		if err := s.restoreSnapshot(st); err != nil {
			return err
		}
		snapSeq, snapFP = st.Seq, st.FP
	}

	walPath := filepath.Join(d.Dir, walFileName)
	lastSeq, fp, err := s.replayWAL(walPath, snapSeq, snapFP)
	if err != nil {
		return err
	}
	if s.lastSnapAt.Load() == 0 {
		s.lastSnapAt.Store(s.cfg.now().UnixNano())
	}
	s.wal, err = openWAL(walPath, lastSeq, fp, d.CrashHook, s.m.walAppends, s.m.walFsyncs)
	return err
}

// checkMeta verifies (or on first boot records) the directory's identity:
// pool parameters and seed, checksummed. Everything replay reconstructs
// is derived from these.
func (s *Server) checkMeta() error {
	path := filepath.Join(s.dataDir, metaFileName)
	want := fmt.Sprintf("%s n=%d m=%d l=%d gamma=%d seed=%d\n",
		metaMagic, s.cfg.Params.N, s.cfg.Params.M, s.cfg.Params.L, s.cfg.Params.Gamma, s.cfg.Seed)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			return fmt.Errorf("authd: write identity file: %w", err)
		}
		return syncDir(s.dataDir)
	}
	if err != nil {
		return fmt.Errorf("authd: read identity file: %w", err)
	}
	if string(data) != want {
		return fmt.Errorf("authd: data dir %s was written by a different authority: %q, this server is %q",
			s.dataDir, string(data), want)
	}
	return nil
}

// restoreSnapshot rebuilds live state from a decoded image.
func (s *Server) restoreSnapshot(st snapshotState) error {
	p := s.cfg.Params
	if st.N != p.N || st.M != p.M || st.L != p.L || st.Gamma != p.Gamma || st.Seed != s.cfg.Seed {
		return fmt.Errorf("authd: snapshot identity (n=%d m=%d l=%d γ=%d seed=%d) does not match the server (n=%d m=%d l=%d γ=%d seed=%d)",
			st.N, st.M, st.L, st.Gamma, st.Seed, p.N, p.M, p.L, p.Gamma, s.cfg.Seed)
	}
	if st.JoinCount < 0 {
		return fmt.Errorf("authd: snapshot join count %d", st.JoinCount)
	}
	// Rebuild the pool by replaying the joins; the pool and the join RNG
	// end up bit-identical to the moment the snapshot was taken.
	for i := 0; i < st.JoinCount; i++ {
		if _, err := s.pool.Join(s.joinRng); err != nil {
			return fmt.Errorf("authd: snapshot join replay %d/%d: %w", i+1, st.JoinCount, err)
		}
	}
	for _, e := range st.Reg {
		if e.Node < 0 || e.Node >= s.pool.N() {
			return fmt.Errorf("authd: snapshot node %d outside pool of %d", e.Node, s.pool.N())
		}
		via := "provision"
		if e.Via == snapViaJoin {
			via = "join"
		}
		if _, err := s.insertAssignment(e.Node, e.Tag, via, time.Unix(0, e.At)); err != nil {
			return fmt.Errorf("authd: snapshot registry: %w", err)
		}
	}
	rv := codepool.RevocationState{Counters: map[codepool.CodeID]int{}}
	for _, c := range st.Counters {
		rv.Counters[codepool.CodeID(c.Code)] = int(c.Count)
	}
	for _, c := range st.Revoked {
		rv.Revoked = append(rv.Revoked, codepool.CodeID(c))
	}
	if err := s.rev.Restore(rv); err != nil {
		return fmt.Errorf("authd: snapshot revocations: %w", err)
	}
	s.nextSlot.Store(int64(st.Cursor))
	s.lastSnapAt.Store(st.TakenAt)
	return nil
}

// replayWAL scans the log, truncates a torn tail, applies every record
// the snapshot does not already cover, and returns the last sequence
// number on disk (or covered by the snapshot, whichever is later) with the
// fingerprint chain at it, folded on from the snapshot's snapFP.
func (s *Server) replayWAL(path string, snapSeq, snapFP uint64) (uint64, uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return snapSeq, snapFP, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("authd: read WAL: %w", err)
	}
	recs, goodLen, err := scanWAL(data)
	if err != nil {
		return 0, 0, err
	}
	if goodLen < len(data) {
		// Torn tail: the partial record was never acknowledged. Cut it off
		// durably before appending anything after it.
		if err := os.Truncate(path, int64(goodLen)); err != nil {
			return 0, 0, fmt.Errorf("authd: truncate torn WAL tail: %w", err)
		}
		s.m.walTornTails.Inc()
	}
	if len(recs) == 0 {
		return snapSeq, snapFP, nil
	}
	// The first record must belong to this history: sequence 1 on a
	// truncated (or fresh) log, or anything at/below snapSeq+1 when a
	// crash left pre-snapshot records behind. A first record *beyond*
	// snapSeq+1 means a prefix of acknowledged records is missing.
	if first := recs[0].Seq; first != 1 && first > snapSeq+1 {
		return 0, 0, fmt.Errorf("%w: log starts at sequence %d, snapshot covers %d", ErrWALCorrupt, first, snapSeq)
	}
	last := recs[len(recs)-1].Seq
	if last < snapSeq {
		// Entire log predates the snapshot (crash between rename and
		// truncate, then more crashes before any new append). Nothing to
		// apply.
		return snapSeq, snapFP, nil
	}
	fp := snapFP
	for _, rec := range recs {
		if rec.Seq <= snapSeq {
			continue
		}
		obs, err := s.applyRecord(rec)
		if err != nil {
			return 0, 0, err
		}
		// Fold exactly as the live append did, so a recovered server's
		// chain equals the one it computed before dying.
		fp = fpRecord(fp, rec.Seq, rec.Kind, obs)
		s.m.walReplayed.Inc()
	}
	return last, fp, nil
}

// applyRecord applies one logged mutation through the apply function
// the live mutation ran (apply.go): validate the record, apply it, then
// check what the transition produced against what the log acknowledged.
// It returns the same observation digest the live mutation computed, so
// replay folds the same fingerprint chain as the original execution.
func (s *Server) applyRecord(rec walRecord) (uint64, error) {
	at := time.Unix(0, rec.At)
	switch rec.Kind {
	case walProvision:
		if end := rec.Start + rec.Count; rec.Start < 0 || end > s.cfg.Params.N {
			return 0, fmt.Errorf("%w: seq %d provisions [%d, %d) outside n=%d", ErrWALCorrupt, rec.Seq, rec.Start, end, s.cfg.Params.N)
		}
		_, obs, err := s.applyProvision(rec.Start, rec.Count, rec.Tag, at)
		if err != nil {
			return 0, fmt.Errorf("%w: seq %d: %v", ErrWALCorrupt, rec.Seq, err)
		}
		return obs, nil
	case walJoin:
		a, expanded, obs, err := s.applyJoin(rec.Tag, at)
		if err != nil {
			return 0, fmt.Errorf("%w: seq %d join replay: %v", ErrWALCorrupt, rec.Seq, err)
		}
		if a.Node != rec.Node {
			return 0, fmt.Errorf("%w: seq %d join replay diverged: produced node %d, log acknowledged %d", ErrWALCorrupt, rec.Seq, a.Node, rec.Node)
		}
		if expanded != rec.Expanded {
			return 0, fmt.Errorf("%w: seq %d join replay diverged: expansion %v, log says %v", ErrWALCorrupt, rec.Seq, expanded, rec.Expanded)
		}
		return obs, nil
	case walRevoke:
		if int(rec.Code) < 0 || int(rec.Code) >= s.pool.S() {
			return 0, fmt.Errorf("%w: seq %d revokes code %d outside pool of %d", ErrWALCorrupt, rec.Seq, rec.Code, s.pool.S())
		}
		_, obs := s.applyRevoke(codepool.CodeID(rec.Code))
		return obs, nil
	default:
		return 0, fmt.Errorf("%w: seq %d kind %d", ErrWALCorrupt, rec.Seq, rec.Kind)
	}
}
