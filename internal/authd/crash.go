package authd

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"

	"repro/internal/analysis"
	"repro/internal/codepool"
)

// Crash-fault injection for the durability layer, in the spirit of
// internal/faults' chaos matrix: instead of jamming the radio, we kill the
// authority process at the worst possible instants of its write path and
// assert that kill-restart-replay preserves the recovery invariants:
//
//   - no deployment slot is ever assigned twice,
//   - no acknowledged mutation is lost,
//   - the exactly-one-revocation guarantee survives the restart,
//   - the distribution epoch never moves backwards.
//
// The hooks are threaded through Durability.CrashHook: production servers
// pass nil and pay a single predictable branch; the in-process matrix
// below panics a sentinel at the armed point (the "kill"), and the
// subprocess harness in cmd/jrsnd-authority calls os.Exit so the process
// dies with its locks held and its buffers unflushed, like a real crash.

// CrashPoint names one instant in the durability write path where a crash
// is interesting. The points bracket every durability transition: before
// the record exists, mid-write (a torn record), after the record but
// before the acknowledgment, and the two halves of the snapshot-truncate
// handoff.
type CrashPoint string

const (
	// CrashPreAppend: the mutation is applied in memory but no WAL bytes
	// have been written. The un-acknowledged mutation must vanish on
	// replay.
	CrashPreAppend CrashPoint = "pre-append"
	// CrashMidAppend: half the record's bytes are on disk — a torn tail.
	// Recovery must truncate it away.
	CrashMidAppend CrashPoint = "mid-append"
	// CrashPostAppend: the record is durable but the client never saw the
	// acknowledgment. Replay resurrects it (at-least-once).
	CrashPostAppend CrashPoint = "post-append"
	// CrashMidSnapshot: the snapshot tmp file is half-written. Recovery
	// must discard it and replay from the previous snapshot + full WAL.
	CrashMidSnapshot CrashPoint = "mid-snapshot"
	// CrashMidTruncate: the new snapshot is durably renamed but the WAL
	// has not been truncated yet. Replay must skip the WAL prefix the
	// snapshot already covers.
	CrashMidTruncate CrashPoint = "mid-truncate"
)

// CrashPoints lists every defined point, in write-path order.
var CrashPoints = []CrashPoint{
	CrashPreAppend, CrashMidAppend, CrashPostAppend, CrashMidSnapshot, CrashMidTruncate,
}

// CrashHook receives each crash point as the write path passes it. A hook
// that wants to "crash" there panics (in-process harness) or exits the
// process (subprocess harness); returning normally lets the write
// continue.
type CrashHook func(CrashPoint)

// fire passes point p to the hook; a nil hook (production) does nothing.
func (h CrashHook) fire(p CrashPoint) {
	if h != nil {
		h(p)
	}
}

// crashSignal is the sentinel the in-process matrix panics with; the
// cycle driver recovers it and abandons the server instance, exactly as
// if the process had died there.
type crashSignal struct{ point CrashPoint }

// CrashConfig configures RunCrashMatrix.
type CrashConfig struct {
	// Dir is the root data directory; each crash point gets a
	// subdirectory that survives across that point's kill-restart cycles.
	Dir string
	// Params sizes the pool. Keep N small so provisions exhaust and joins
	// force batch expansions within a cycle.
	Params analysis.Params
	// Seed drives the pool and the operation mix.
	Seed int64
	// Cycles is the kill-restart count per crash point (0 = 6).
	Cycles int
	// OpsPerCycle bounds the mutations attempted per cycle (0 = 48).
	OpsPerCycle int
	// SnapshotEvery triggers a snapshot every this many driver ops
	// (0 = 16), so the snapshot/truncate points actually fire.
	SnapshotEvery int
}

// CrashReport is one crash point's outcome.
type CrashReport struct {
	Point    CrashPoint
	Cycles   int
	Crashes  int // cycles that actually died at the armed point
	AckedOps int // mutations acknowledged across all cycles
	// Violations lists every invariant breach observed; empty means the
	// point passed.
	Violations []string
}

// Passed reports whether the point held every invariant.
func (r CrashReport) Passed() bool { return len(r.Violations) == 0 }

// RunCrashMatrix runs the kill-restart loop at every crash point and
// returns one report per point. Deterministic in (Params, Seed) up to
// wall-clock timestamps, which the invariants never read.
func RunCrashMatrix(cfg CrashConfig) ([]CrashReport, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("authd: crash matrix needs a data directory")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("authd: crash matrix: %w", err)
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 6
	}
	if cfg.OpsPerCycle <= 0 {
		cfg.OpsPerCycle = 48
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 16
	}
	reports := make([]CrashReport, 0, len(CrashPoints))
	for i, point := range CrashPoints {
		reports = append(reports, runCrashPoint(point, i, cfg))
	}
	return reports, nil
}

// runCrashPoint hammers one point: open → verify recovery → mutate until
// the armed crash fires (or the cycle's op budget runs out) → abandon or
// drain → repeat. The data directory persists across cycles; the ledger
// persists across the whole point.
func runCrashPoint(point CrashPoint, idx int, cfg CrashConfig) CrashReport {
	rep := CrashReport{Point: point, Cycles: cfg.Cycles}
	led := NewLedger(cfg.Params.Gamma)
	dir := filepath.Join(cfg.Dir, string(point))
	rng := rand.New(rand.NewSource(cfg.Seed + int64(idx)*7919))
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		if runCrashCycle(point, dir, cfg, rng, led) {
			rep.Crashes++
		}
		if len(led.Violations()) > 8 {
			break // the point is broken; stop piling on
		}
	}
	// Determinism fingerprint: two clean recoveries of the final directory
	// must agree bit for bit — replay has no hidden inputs.
	fp1, err1 := crashFingerprint(dir, cfg)
	fp2, err2 := crashFingerprint(dir, cfg)
	switch {
	case err1 != nil:
		led.Violate("final recovery failed: %v", err1)
	case err2 != nil:
		led.Violate("second recovery failed: %v", err2)
	case fp1 != fp2:
		led.Violate("recovery is nondeterministic: two replays of the same directory disagree")
	}
	rep.AckedOps, rep.Violations = led.AckedOps(), led.Violations()
	return rep
}

// runCrashCycle runs one open-verify-mutate-kill cycle and reports
// whether it died at the armed point.
func runCrashCycle(point CrashPoint, dir string, cfg CrashConfig, rng *rand.Rand, led *Ledger) bool {
	hits, target := 0, 1+rng.Intn(4)
	hook := func(q CrashPoint) {
		if q == point {
			hits++
			if hits == target {
				panic(crashSignal{point: q})
			}
		}
	}
	s, err := New(Config{
		Params: cfg.Params,
		Seed:   cfg.Seed,
		Rate:   -1,
		Durable: Durability{
			Dir:           dir,
			SnapshotEvery: -1, // the driver snapshots explicitly
			CrashHook:     hook,
		},
	})
	if err != nil {
		led.Violate("recovery failed: %v", err)
		return false
	}
	led.Check(s.view())

	// The pool only grows, so the boot-time size is always a valid revoke
	// range.
	s.poolMu.RLock()
	poolSize := s.pool.S()
	s.poolMu.RUnlock()

	for i := 0; i < cfg.OpsPerCycle; i++ {
		if runCrashOp(s, i, poolSize, cfg, rng, led) {
			s.wal.abandon() // the "dead" process's fd goes away; state is disk-only now
			return true
		}
	}
	if err := s.wal.close(); err != nil {
		led.Violate("clean close failed: %v", err)
	}
	return false
}

// runCrashOp performs one driver operation directly against the server's
// mutation path (the HTTP layer is exercised by the subprocess harness in
// cmd/jrsnd-authority), recording every acknowledged result in the
// ledger. It reports whether the armed crash fired.
func runCrashOp(s *Server, i, poolSize int, cfg CrashConfig, rng *rand.Rand, led *Ledger) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	if i > 0 && i%cfg.SnapshotEvery == 0 {
		if err := s.Snapshot(); err != nil {
			led.Violate("snapshot failed: %v", err)
		}
	}
	switch pick := rng.Intn(100); {
	case pick < 45:
		out, seq, err := s.provision(1+rng.Intn(3), "crash")
		switch {
		case err == nil:
			led.Provision(ProvisionResponse{Nodes: out, Epoch: s.Epoch(), Seq: seq})
		case !errors.Is(err, ErrExhausted):
			led.Violate("provision error: %v", err)
		}
	case pick < 70:
		a, expanded, seq, err := s.join("crash")
		if err != nil {
			led.Violate("join error: %v", err)
			return false
		}
		led.Join(JoinResponse{Node: a.Node, Codes: a.Codes, Epoch: s.Epoch(), Expanded: expanded, Seq: seq})
	default:
		res, err := s.revoke(codepool.CodeID(rng.Intn(poolSize)))
		if err != nil {
			led.Violate("revoke error: %v", err)
			return false
		}
		led.Revoke(res)
	}
	return false
}

// view is the server's registry, epoch and revocation table as
// Ledger.Check reads them.
func (s *Server) view() View {
	return View{
		Epoch: s.Epoch(),
		Node: func(node int) ([]codepool.CodeID, error) {
			rec, ok := s.reg.get(node)
			if !ok {
				return nil, ErrNotFound
			}
			return rec.Codes, nil
		},
		Revoked: func(code int32) bool { return s.rev.Revoked(codepool.CodeID(code)) },
	}
}

// crashFingerprint opens the directory cleanly and reduces the recovered
// state to a canonical string: registry contents, epoch, cursor, WAL
// position, and the whole revocation table.
func crashFingerprint(dir string, cfg CrashConfig) (string, error) {
	s, err := New(Config{
		Params:  cfg.Params,
		Seed:    cfg.Seed,
		Rate:    -1,
		Durable: Durability{Dir: dir, SnapshotEvery: -1},
	})
	if err != nil {
		return "", err
	}
	defer func() { _ = s.wal.close() }()
	return s.stateFingerprint(), nil
}

// stateFingerprint reduces the server's durable-relevant state to a
// canonical string (timestamps excluded — they are wall-clock, not
// replayed decisions). Two servers recovered from the same directory must
// fingerprint identically.
func (s *Server) stateFingerprint() string {
	var b []byte
	seq := uint64(0)
	if s.wal != nil {
		seq = s.wal.lastSeq()
	}
	b = fmt.Appendf(b, "epoch=%d cursor=%d seq=%d\n", s.Epoch(), s.nextSlot.Load(), seq)
	for _, e := range s.reg.dump() {
		b = fmt.Appendf(b, "node %d via %s tag %q codes %v\n", e.Node, e.Rec.Via, e.Rec.Tag, e.Rec.Codes)
	}
	st := s.rev.Dump()
	codes := make([]codepool.CodeID, 0, len(st.Counters))
	for c := range st.Counters {
		codes = append(codes, c)
	}
	slices.Sort(codes)
	for _, c := range codes {
		b = fmt.Appendf(b, "code %d count %d\n", c, st.Counters[c])
	}
	b = fmt.Appendf(b, "revoked %v\n", st.Revoked)
	return string(b)
}

// FormatCrashReports renders the matrix outcome for humans, one line per
// point plus every violation.
func FormatCrashReports(reports []CrashReport) string {
	var b []byte
	for _, r := range reports {
		status := "ok"
		if !r.Passed() {
			status = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
		}
		b = fmt.Appendf(b, "crash point %-13s %d cycles, %d crashes, %d acked ops: %s\n",
			r.Point, r.Cycles, r.Crashes, r.AckedOps, status)
		for _, v := range r.Violations {
			b = fmt.Appendf(b, "  violation: %s\n", v)
		}
	}
	return string(b)
}
