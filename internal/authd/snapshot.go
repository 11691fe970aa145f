package authd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/codepool"
)

// Snapshots bound replay time and let the WAL be truncated: every
// SnapshotEvery mutations the server writes a checksummed point-in-time
// image of its whole durable state — registry, join count, slot cursor,
// revocation table — tagged with the WAL sequence it covers, then empties
// the log. The write is atomic (tmp + fsync + rename + directory fsync),
// so a crash leaves either the old snapshot or the new one, never a
// half-written hybrid; a crash between the rename and the truncate leaves
// a WAL whose prefix the snapshot already covers, which replay skips by
// sequence number.
//
// The pool itself is NOT serialized: pool state is a pure function of
// (Params, Seed, ordered join count) — codepool.New is deterministic in
// its rand.Source and Join is the only mutation — so the snapshot stores
// the join count and recovery replays that many joins to rebuild the pool
// and the join RNG bit for bit. That keeps snapshots O(assignments)
// instead of O(pool) and reuses the live code path, which the recovery
// divergence check (recover.go) then cross-validates against every
// logged join.
//
// Snapshot file layout (big-endian):
//
//	magic "JRSNDSN1" | u32 payload length | u32 CRC-32C(payload) | payload
//
// payload:
//
//	u32 n, m, l, γ | i64 seed          — identity; must match the server's
//	u64 seq                            — WAL sequence this snapshot covers
//	u64 fp                             — fingerprint chain at seq (apply.go)
//	u64 cursor                         — raw deployment-slot cursor
//	i64 takenAt (unix ns)
//	u32 joinCount                      — §V-A joins to replay
//	u32 registry entry count, then per entry:
//	    u32 node | u8 via (0=provision, 1=join) | i64 at | u16 tagLen | tag
//	u32 revocation counter count, then per entry: u32 code | u32 count
//	u32 revoked code count, then per entry: u32 code

const (
	snapMagic = "JRSNDSN1"
	// snapMaxPayload caps a declared payload before trusting it — the
	// registry of a fully provisioned+joined deployment is a few MiB at
	// the defaults; 256 MiB is an order-of-magnitude ceiling, not a target.
	snapMaxPayload = 1 << 28

	snapViaProvision = 0
	snapViaJoin      = 1
)

// Durable file names within the data directory.
const (
	walFileName  = "wal.log"
	snapFileName = "snapshot.jrsnd"
	snapTmpName  = "snapshot.tmp"
	metaFileName = "authority.meta"
)

// snapshotState is the decoded image.
type snapshotState struct {
	N, M, L, Gamma int
	Seed           int64
	Seq            uint64
	FP             uint64
	Cursor         uint64
	TakenAt        int64
	JoinCount      int
	Reg            []snapRegEntry
	Counters       []snapCounter
	Revoked        []int32
}

type snapRegEntry struct {
	Node int
	Via  uint8
	At   int64
	Tag  string
}

type snapCounter struct {
	Code  int32
	Count int32
}

// encodeSnapshot renders the full file, checksum included.
func encodeSnapshot(st snapshotState) ([]byte, error) {
	var p []byte
	p = binary.BigEndian.AppendUint32(p, uint32(st.N))
	p = binary.BigEndian.AppendUint32(p, uint32(st.M))
	p = binary.BigEndian.AppendUint32(p, uint32(st.L))
	p = binary.BigEndian.AppendUint32(p, uint32(st.Gamma))
	p = binary.BigEndian.AppendUint64(p, uint64(st.Seed))
	p = binary.BigEndian.AppendUint64(p, st.Seq)
	p = binary.BigEndian.AppendUint64(p, st.FP)
	p = binary.BigEndian.AppendUint64(p, st.Cursor)
	p = binary.BigEndian.AppendUint64(p, uint64(st.TakenAt))
	p = binary.BigEndian.AppendUint32(p, uint32(st.JoinCount))
	p = binary.BigEndian.AppendUint32(p, uint32(len(st.Reg)))
	for _, e := range st.Reg {
		if len(e.Tag) > walMaxTag {
			return nil, fmt.Errorf("authd: snapshot: node %d tag %d bytes > %d", e.Node, len(e.Tag), walMaxTag)
		}
		p = binary.BigEndian.AppendUint32(p, uint32(e.Node))
		p = append(p, e.Via)
		p = binary.BigEndian.AppendUint64(p, uint64(e.At))
		p = binary.BigEndian.AppendUint16(p, uint16(len(e.Tag)))
		p = append(p, e.Tag...)
	}
	p = binary.BigEndian.AppendUint32(p, uint32(len(st.Counters)))
	for _, c := range st.Counters {
		p = binary.BigEndian.AppendUint32(p, uint32(c.Code))
		p = binary.BigEndian.AppendUint32(p, uint32(c.Count))
	}
	p = binary.BigEndian.AppendUint32(p, uint32(len(st.Revoked)))
	for _, c := range st.Revoked {
		p = binary.BigEndian.AppendUint32(p, uint32(c))
	}

	out := make([]byte, 0, len(snapMagic)+8+len(p))
	out = append(out, snapMagic...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(p)))
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(p, crcTable))
	out = append(out, p...)
	return out, nil
}

// cursor walks a byte slice with bounds checks on every read, in the
// style of internal/wire's reader: the first error sticks and every
// accessor after it returns zero, so a decoder reads its layout straight
// through and checks the error once, at done. The snapshot and WAL-body
// decoders both read through it.
type cursor struct {
	data []byte
	off  int
	base error // every error wraps this (e.g. ErrWALCorrupt)
	err  error
}

// failf records the first error; later ones are dropped.
func (c *cursor) failf(format string, args ...any) {
	if c.err == nil {
		c.err = &cursorError{base: c.base, format: format, args: args}
	}
}

// cursorError is a decode rejection that formats only when read, so
// refusing hostile input never touches fmt's printer cache: that cache is
// a sync.Pool, which the race detector empties at random, and a miss
// there would show up as a spurious extra allocation on the reject path.
type cursorError struct {
	base   error
	format string
	args   []any
}

func (e *cursorError) Error() string { return e.base.Error() + ": " + fmt.Sprintf(e.format, e.args...) }

func (e *cursorError) Unwrap() error { return e.base }

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.data)-c.off {
		c.failf("truncated at offset %d (need %d of %d bytes)", c.off, n, len(c.data))
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u16() uint16 {
	if b := c.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// count reads a u32 element count and checks it against the bytes left
// at minEntryBytes per element, so a hostile count fails here, before
// the caller loops or allocates.
func (c *cursor) count(minEntryBytes int, what string) int {
	n := int(c.u32())
	if c.err == nil && n > (len(c.data)-c.off)/minEntryBytes {
		c.failf("declares %d %s in %d bytes", n, what, len(c.data)-c.off)
		return 0
	}
	return n
}

// tag reads a u16-length-prefixed client tag, capped at walMaxTag.
func (c *cursor) tag() string {
	n := int(c.u16())
	if c.err == nil && n > walMaxTag {
		c.failf("tag %d bytes > %d", n, walMaxTag)
		return ""
	}
	return string(c.take(n))
}

// done rejects trailing bytes — every layout read here is canonical, so
// slack is corruption — and returns the first error.
func (c *cursor) done() error {
	if c.err == nil && c.off != len(c.data) {
		c.failf("%d trailing bytes", len(c.data)-c.off)
	}
	return c.err
}

var errSnapshot = errors.New("authd: snapshot")

// decodeSnapshot verifies the checksum and parses the payload. Counts are
// cross-checked against the remaining byte budget before any loop, so a
// hostile length can never drive allocation.
func decodeSnapshot(data []byte) (snapshotState, error) {
	var st snapshotState
	h := &cursor{data: data, base: errSnapshot}
	if magic := h.take(len(snapMagic)); h.err == nil && string(magic) != snapMagic {
		h.failf("magic mismatch")
	}
	plen, wantCRC := h.u32(), h.u32()
	if h.err == nil && plen > snapMaxPayload {
		h.failf("payload %d bytes > %d", plen, snapMaxPayload)
	}
	payload := h.take(int(plen))
	if err := h.done(); err != nil {
		return st, err
	}
	if crc := crc32.Checksum(payload, crcTable); crc != wantCRC {
		return st, fmt.Errorf("%w: checksum %08x != %08x", errSnapshot, crc, wantCRC)
	}

	c := &cursor{data: payload, base: errSnapshot}
	st.N, st.M, st.L, st.Gamma = int(c.u32()), int(c.u32()), int(c.u32()), int(c.u32())
	st.Seed = int64(c.u64())
	st.Seq, st.FP, st.Cursor = c.u64(), c.u64(), c.u64()
	st.TakenAt = int64(c.u64())
	st.JoinCount = int(c.u32())
	// A registry entry is at least 15 bytes: node, via, at, tag length.
	for i, n := 0, c.count(15, "registry entries"); i < n && c.err == nil; i++ {
		e := snapRegEntry{Node: int(c.u32()), Via: c.u8(), At: int64(c.u64())}
		if e.Via != snapViaProvision && e.Via != snapViaJoin {
			c.failf("node %d via byte %d", e.Node, e.Via)
		}
		e.Tag = c.tag()
		st.Reg = append(st.Reg, e)
	}
	for i, n := 0, c.count(8, "counters"); i < n && c.err == nil; i++ {
		code, cnt := c.u32(), c.u32()
		if code > 1<<30 || cnt > 1<<30 {
			c.failf("counter code=%d count=%d out of range", code, cnt)
		}
		st.Counters = append(st.Counters, snapCounter{Code: int32(code), Count: int32(cnt)})
	}
	for i, n := 0, c.count(4, "revoked codes"); i < n && c.err == nil; i++ {
		code := c.u32()
		if code > 1<<30 {
			c.failf("revoked code %d out of range", code)
		}
		st.Revoked = append(st.Revoked, int32(code))
	}
	return st, c.done()
}

// Snapshot durably captures the server's current state and truncates the
// WAL. Safe to call any time on a durable server; a no-op otherwise.
// Concurrent callers serialize; mutations are excluded for the duration
// (poolMu is the global consistency lock — every mutator holds at least
// its read side across apply+append, so the write lock is a consistent
// cut across all registry shards and the revocation table).
func (s *Server) Snapshot() error {
	if s.wal == nil {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked does the work; the caller holds snapMu. poolMu is held
// through the truncate: truncating drops *every* record in the file, so
// no append may land between the state capture and the truncate.
func (s *Server) snapshotLocked() (err error) {
	defer func() {
		if err != nil {
			s.m.snapshotErrors.Inc()
		}
	}()
	s.poolMu.Lock()
	defer s.poolMu.Unlock()

	now := s.cfg.now()
	st := snapshotState{
		N: s.cfg.Params.N, M: s.cfg.Params.M, L: s.cfg.Params.L, Gamma: s.cfg.Params.Gamma,
		Seed: s.cfg.Seed,
		Seq:  s.wal.lastSeq(),
		// poolMu's write lock excludes appends, so the chain value is the
		// fingerprint at exactly Seq.
		FP:        s.wal.chainFP(),
		Cursor:    uint64(s.nextSlot.Load()),
		TakenAt:   now.UnixNano(),
		JoinCount: s.pool.N() - s.cfg.Params.N,
	}
	for _, e := range s.reg.dump() {
		via := uint8(snapViaProvision)
		if e.Rec.Via == "join" {
			via = snapViaJoin
		}
		st.Reg = append(st.Reg, snapRegEntry{Node: e.Node, Via: via, At: e.Rec.At.UnixNano(), Tag: e.Rec.Tag})
	}
	rev := s.rev.Dump()
	codes := make([]codepool.CodeID, 0, len(rev.Counters))
	for c := range rev.Counters {
		codes = append(codes, c)
	}
	slices.Sort(codes)
	for _, c := range codes {
		st.Counters = append(st.Counters, snapCounter{Code: int32(c), Count: int32(rev.Counters[c])})
	}
	for _, c := range rev.Revoked {
		st.Revoked = append(st.Revoked, int32(c))
	}

	data, err := encodeSnapshot(st)
	if err != nil {
		return err
	}
	if err := s.writeSnapshotFile(data); err != nil {
		return err
	}
	s.crashHook.fire(CrashMidTruncate)
	if err := s.wal.truncate(); err != nil {
		return err
	}
	s.lastSnapAt.Store(st.TakenAt)
	s.mutations.Store(0)
	s.m.snapshots.Inc()
	return nil
}

// writeSnapshotFile lands the image atomically: tmp file, fsync, rename
// over the live name, directory fsync. The tmp write is split in two so
// CrashMidSnapshot leaves a genuinely half-written file behind.
func (s *Server) writeSnapshotFile(data []byte) error {
	tmp := filepath.Join(s.dataDir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("authd: snapshot tmp: %w", err)
	}
	defer f.Close()
	half := len(data) / 2
	if _, err := f.Write(data[:half]); err != nil {
		return fmt.Errorf("authd: snapshot write: %w", err)
	}
	s.crashHook.fire(CrashMidSnapshot)
	if _, err := f.Write(data[half:]); err != nil {
		return fmt.Errorf("authd: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("authd: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("authd: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dataDir, snapFileName)); err != nil {
		return fmt.Errorf("authd: snapshot rename: %w", err)
	}
	return syncDir(s.dataDir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("authd: open data dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("authd: sync data dir: %w", err)
	}
	return nil
}

// noteMutation ticks the auto-snapshot counter after an acknowledged
// mutation and, past the cadence, snapshots inline on the request that
// crossed it (TryLock: concurrent crossers skip instead of queueing).
func (s *Server) noteMutation() {
	if s.wal == nil || s.snapEvery <= 0 {
		return
	}
	if s.mutations.Add(1) < int64(s.snapEvery) {
		return
	}
	if !s.snapMu.TryLock() {
		return
	}
	defer s.snapMu.Unlock()
	_ = s.snapshotLocked() // failure is counted in snapshot_errors; the WAL keeps the state safe
}
