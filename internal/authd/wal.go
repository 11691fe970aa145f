package authd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"repro/internal/metrics"
)

// Write-ahead log: every provision/join/revoke mutation is appended as a
// length-prefixed, checksummed binary record *before* the HTTP response
// acknowledges it, in the internal/wire framing style (fixed big-endian
// header, strictly bounded variable-length fields, typed error taxonomy).
// Replaying the log through the same deterministic code paths that served
// the live traffic reconstructs the authority's exact state after a crash
// — see recover.go for the replay and the torn-tail rule.
//
// Record layout (all integers big-endian):
//
//	byte  0      version (currently 1)
//	byte  1      kind (walProvision | walJoin | walRevoke)
//	bytes 2..5   uint32 body length
//	bytes 6..13  uint64 sequence number (1-based, strictly consecutive)
//	bytes 14..17 uint32 CRC-32C over bytes 0..13 and the body
//	bytes 18..   body (per-kind encoding, see encodeWALBody)
//
// The CRC covers the sequence number, so a torn or bit-flipped record can
// never masquerade as a valid successor of a different record.

// WAL format constants.
const (
	walVersion   = 1
	walHeaderLen = 18
	// walMaxBody caps a declared record body before any allocation — the
	// bounded-decode discipline of internal/wire. Honest bodies are tiny
	// (a tag plus a few fixed fields), so 64 KiB is generous headroom.
	walMaxBody = 1 << 16
	// walMaxTag caps the stored client tag, comfortably above the service
	// decode cap (Limits.MaxTag, default 128).
	walMaxTag = 1 << 10
)

// walKind enumerates the mutation record kinds.
type walKind uint8

const (
	walProvision walKind = iota + 1
	walJoin
	walRevoke
	numWALKinds = walRevoke
)

// Typed WAL error taxonomy, mirroring the wire codec's.
var (
	// ErrWALTruncated: the data ends before a declared record does — the
	// torn-tail shape recovery truncates away.
	ErrWALTruncated = errors.New("authd: truncated WAL record")
	// ErrWALCorrupt: a record in the middle of the log is damaged (bad
	// checksum, bad kind, sequence gap) while valid records follow it.
	// Recovery refuses to skip it — that would silently drop an
	// acknowledged mutation.
	ErrWALCorrupt = errors.New("authd: corrupt WAL")
	// ErrWALClosed: the log was closed (drain finished) or a previous
	// append failed; the server refuses further mutations.
	ErrWALClosed = errors.New("authd: WAL closed")
)

// crcTable is the Castagnoli polynomial, the same choice as storage
// systems that care about short-record integrity.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one decoded mutation. Kind selects which fields are
// meaningful.
type walRecord struct {
	Seq  uint64
	Kind walKind

	// walProvision: the claimed deployment-slot range [Start, Start+Count).
	Start int
	Count int

	// walJoin: the node index the §V-A admission produced, and whether it
	// forced a batch expansion (an epoch advance). Node doubles as the
	// replay assertion: a replayed join must reproduce exactly this index.
	Node     int
	Expanded bool

	// walRevoke: the reported code.
	Code int32

	// Tag is the client label stored with provision/join assignments.
	Tag string
	// At is the assignment wall-clock timestamp (Unix nanoseconds),
	// preserved so recovered registry records keep their original times.
	At int64
}

// appendWALRecord encodes rec (with its Seq already assigned) onto dst.
func appendWALRecord(dst []byte, rec walRecord) ([]byte, error) {
	body, err := encodeWALBody(rec)
	if err != nil {
		return dst, err
	}
	var hdr [walHeaderLen]byte
	hdr[0] = walVersion
	hdr[1] = byte(rec.Kind)
	binary.BigEndian.PutUint32(hdr[2:6], uint32(len(body)))
	binary.BigEndian.PutUint64(hdr[6:14], rec.Seq)
	crc := crc32.Checksum(hdr[:14], crcTable)
	crc = crc32.Update(crc, crcTable, body)
	binary.BigEndian.PutUint32(hdr[14:18], crc)
	dst = append(dst, hdr[:]...)
	dst = append(dst, body...)
	return dst, nil
}

// encodeWALBody renders the per-kind payload.
func encodeWALBody(rec walRecord) ([]byte, error) {
	if len(rec.Tag) > walMaxTag {
		return nil, fmt.Errorf("%w: tag %d bytes > %d", ErrWALCorrupt, len(rec.Tag), walMaxTag)
	}
	var b []byte
	switch rec.Kind {
	case walProvision:
		if rec.Start < 0 || rec.Count < 1 {
			return nil, fmt.Errorf("%w: provision range [%d,+%d)", ErrWALCorrupt, rec.Start, rec.Count)
		}
		b = make([]byte, 0, 18+len(rec.Tag))
		b = binary.BigEndian.AppendUint32(b, uint32(rec.Start))
		b = binary.BigEndian.AppendUint32(b, uint32(rec.Count))
		b = binary.BigEndian.AppendUint64(b, uint64(rec.At))
		b = binary.BigEndian.AppendUint16(b, uint16(len(rec.Tag)))
		b = append(b, rec.Tag...)
	case walJoin:
		if rec.Node < 0 {
			return nil, fmt.Errorf("%w: join node %d", ErrWALCorrupt, rec.Node)
		}
		b = make([]byte, 0, 15+len(rec.Tag))
		b = binary.BigEndian.AppendUint32(b, uint32(rec.Node))
		if rec.Expanded {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.BigEndian.AppendUint64(b, uint64(rec.At))
		b = binary.BigEndian.AppendUint16(b, uint16(len(rec.Tag)))
		b = append(b, rec.Tag...)
	case walRevoke:
		if rec.Code < 0 {
			return nil, fmt.Errorf("%w: revoke code %d", ErrWALCorrupt, rec.Code)
		}
		b = make([]byte, 0, 12)
		b = binary.BigEndian.AppendUint32(b, uint32(rec.Code))
		b = binary.BigEndian.AppendUint64(b, uint64(rec.At))
	default:
		return nil, fmt.Errorf("%w: record kind %d", ErrWALCorrupt, rec.Kind)
	}
	return b, nil
}

// parseWALRecord decodes the record at the front of data, returning the
// record and its total encoded length. ErrWALTruncated means data ends
// mid-record; every other failure wraps ErrWALCorrupt.
func parseWALRecord(data []byte) (walRecord, int, error) {
	if len(data) < walHeaderLen {
		return walRecord{}, 0, fmt.Errorf("%w: %d header bytes of %d", ErrWALTruncated, len(data), walHeaderLen)
	}
	if data[0] != walVersion {
		return walRecord{}, 0, fmt.Errorf("%w: version %d", ErrWALCorrupt, data[0])
	}
	kind := walKind(data[1])
	if kind < 1 || kind > numWALKinds {
		return walRecord{}, 0, fmt.Errorf("%w: record kind %d", ErrWALCorrupt, data[1])
	}
	bodyLen := int(binary.BigEndian.Uint32(data[2:6]))
	if bodyLen > walMaxBody {
		return walRecord{}, 0, fmt.Errorf("%w: body %d bytes > %d", ErrWALCorrupt, bodyLen, walMaxBody)
	}
	if len(data) < walHeaderLen+bodyLen {
		return walRecord{}, 0, fmt.Errorf("%w: %d body bytes of %d", ErrWALTruncated, len(data)-walHeaderLen, bodyLen)
	}
	body := data[walHeaderLen : walHeaderLen+bodyLen]
	want := binary.BigEndian.Uint32(data[14:18])
	crc := crc32.Checksum(data[:14], crcTable)
	crc = crc32.Update(crc, crcTable, body)
	if crc != want {
		return walRecord{}, 0, fmt.Errorf("%w: checksum %08x != %08x", ErrWALCorrupt, crc, want)
	}
	rec := walRecord{
		Seq:  binary.BigEndian.Uint64(data[6:14]),
		Kind: kind,
	}
	if err := decodeWALBody(&rec, body); err != nil {
		return walRecord{}, 0, err
	}
	return rec, walHeaderLen + bodyLen, nil
}

// decodeWALBody parses the per-kind payload, rejecting trailing bytes —
// the encoding is canonical, so a mismatch is corruption, not slack.
func decodeWALBody(rec *walRecord, body []byte) error {
	c := &cursor{data: body, base: ErrWALCorrupt}
	switch rec.Kind {
	case walProvision:
		rec.Start, rec.Count, rec.At = int(c.u32()), int(c.u32()), int64(c.u64())
		rec.Tag = c.tag()
		if c.err == nil && rec.Count < 1 {
			c.failf("provision count %d", rec.Count)
		}
	case walJoin:
		rec.Node = int(c.u32())
		switch expanded := c.u8(); expanded {
		case 0, 1:
			rec.Expanded = expanded == 1
		default:
			c.failf("join expanded byte %d", expanded)
		}
		rec.At = int64(c.u64())
		rec.Tag = c.tag()
	case walRevoke:
		code := c.u32()
		if code > 1<<30 {
			c.failf("revoke code %d", code)
		}
		rec.Code = int32(code)
		rec.At = int64(c.u64())
	}
	return c.done()
}

// scanWAL parses every record in data. On a clean log it returns all
// records and goodLen == len(data). On a damaged log it applies the
// torn-tail rule: if nothing beyond the first bad byte parses as a valid
// successor record, the damage is a torn tail — the records before it are
// returned and goodLen marks where recovery must truncate the file. If a
// valid successor *does* follow the damage, a middle record was lost and
// scanWAL refuses with ErrWALCorrupt: silently skipping it would drop an
// acknowledged mutation.
//
// Sequence numbers must be strictly consecutive; a gap or repeat is
// corruption (the CRC covers the sequence, so torn writes cannot fake
// continuity).
func scanWAL(data []byte) (recs []walRecord, goodLen int, err error) {
	off := 0
	var lastSeq uint64
	for off < len(data) {
		rec, n, perr := parseWALRecord(data[off:])
		if perr == nil && len(recs) > 0 && rec.Seq != lastSeq+1 {
			// The record parsed — its CRC (which covers the sequence) is
			// intact — yet it does not continue the chain. A torn write
			// cannot produce that; records went missing. Refuse outright.
			return nil, 0, fmt.Errorf("%w: sequence %d after %d at offset %d", ErrWALCorrupt, rec.Seq, lastSeq, off)
		}
		if perr != nil {
			if resyncOffset(data, off+1, lastSeq) >= 0 {
				return nil, 0, fmt.Errorf("%w: bad record at offset %d with valid records after it (%v)", ErrWALCorrupt, off, perr)
			}
			return recs, off, nil // torn tail: truncate here
		}
		recs = append(recs, rec)
		lastSeq = rec.Seq
		off += n
	}
	return recs, off, nil
}

// resyncOffset scans forward from offset from for any position that
// parses as a valid record with a sequence number beyond lastSeq —
// evidence that the damage sits in the *middle* of the log. Returns -1
// when no such record exists (the damage is a tail).
func resyncOffset(data []byte, from int, lastSeq uint64) int {
	for off := from; off+walHeaderLen <= len(data); off++ {
		if data[off] != walVersion {
			continue
		}
		rec, _, err := parseWALRecord(data[off:])
		if err == nil && rec.Seq > lastSeq {
			return off
		}
	}
	return -1
}

// wal is the append side of the log. Encoding and the file write are
// serialized under mu (they share one file offset); the fsync that makes
// a record durable is group-committed under syncMu: concurrent appends
// write their records back to back, then the first of them into syncMu
// fsyncs once for the whole group and the rest find their sequence
// already covered by the synced watermark. A failed append is sticky:
// once the log cannot be trusted to be ahead of the acknowledged state,
// every further mutation is refused.
//
// Lock order: syncMu before mu (syncTo reads seq under mu while holding
// syncMu; truncate and close take both in that order).
// append takes mu alone, releases it, then enters syncTo.
type wal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	seq    uint64 // last sequence assigned and handed to the OS (guarded by mu)
	fp     uint64 // fingerprint chain at seq (guarded by mu; see fpFold)
	failed error  // sticky failure
	buf    []byte

	syncMu sync.Mutex
	synced uint64 // last sequence known fsynced (guarded by syncMu)

	hook    CrashHook // crash-fault injection; nil in production
	appends *metrics.Counter
	fsyncs  *metrics.Counter
}

// openWAL opens (creating if needed) the log file in append mode. seq is
// the last sequence number recovery observed (snapshot or replay) and fp
// the fingerprint chain at it.
func openWAL(path string, seq, fp uint64, hook CrashHook, appends, fsyncs *metrics.Counter) (*wal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("authd: open WAL: %w", err)
	}
	return &wal{
		f: f, path: path, seq: seq, fp: fp, synced: seq,
		hook: hook, appends: appends, fsyncs: fsyncs,
	}, nil
}

// append assigns the next sequence number, encodes and writes the record
// under mu, then joins (or leads) the current fsync group outside mu so
// concurrent appends coalesce, returning the assigned sequence once the
// record is durable. obs is the mutation's observation digest, folded
// into the fingerprint chain at the instant the record gains its place in
// the order. The caller acknowledges the mutation to the client
// strictly after this returns.
func (w *wal) append(rec walRecord, obs uint64) (uint64, error) {
	seq, err := w.appendLocked(rec, obs)
	if err != nil {
		return 0, err
	}
	if err := w.syncTo(seq); err != nil {
		return 0, err
	}
	// Durable but not yet acknowledged.
	w.hook.fire(CrashPostAppend)
	return seq, nil
}

// appendLocked is the mu-held half of append: sequence assignment,
// encode, and write.
func (w *wal) appendLocked(rec walRecord, obs uint64) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if w.f == nil {
		return 0, ErrWALClosed
	}
	rec.Seq = w.seq + 1
	frame, err := appendWALRecord(w.buf[:0], rec)
	if err != nil {
		// The caller has already applied the mutation in memory; an
		// unloggable record is a divergence, so the failure is sticky.
		return 0, w.fail(err)
	}
	w.buf = frame[:0:cap(frame)]
	w.hook.fire(CrashPreAppend)
	if w.hook != nil && len(frame) > 1 {
		// With a crash hook armed, split the write so CrashMidAppend can
		// land a genuinely torn record on disk.
		half := len(frame) / 2
		if _, err := w.f.Write(frame[:half]); err != nil {
			return 0, w.fail(err)
		}
		w.hook.fire(CrashMidAppend)
		if _, err := w.f.Write(frame[half:]); err != nil {
			return 0, w.fail(err)
		}
	} else if _, err := w.f.Write(frame); err != nil {
		return 0, w.fail(err)
	}
	w.seq = rec.Seq
	// Folded under mu, so the chain order is the log order.
	w.fp = fpRecord(w.fp, rec.Seq, rec.Kind, obs)
	w.appends.Inc()
	return rec.Seq, nil
}

// syncTo makes sequence seq durable, coalescing with concurrent appends:
// the first caller into syncMu fsyncs everything written so far (the
// group's leader, one fsync for the whole batch); later callers find
// their sequence already under the synced watermark and return without
// an fsync of their own.
func (w *wal) syncTo(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced >= seq {
		return nil
	}
	w.mu.Lock()
	target := w.seq
	f := w.f
	failed := w.failed
	w.mu.Unlock()
	if failed != nil {
		return failed
	}
	if f == nil {
		return ErrWALClosed
	}
	if err := f.Sync(); err != nil {
		w.poison(err)
		return fmt.Errorf("authd: WAL fsync: %w", err)
	}
	w.fsyncs.Inc()
	w.synced = target
	return nil
}

// fail records a sticky append failure.
func (w *wal) fail(err error) error {
	w.failed = fmt.Errorf("%w: %v", ErrWALClosed, err)
	return fmt.Errorf("authd: WAL append: %w", err)
}

// poison marks the log failed from outside (a mutator applied state it
// could not finish recording). Idempotent; keeps the first cause.
func (w *wal) poison(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed == nil {
		w.failed = fmt.Errorf("%w: %v", ErrWALClosed, err)
	}
}

// lastSeq returns the last assigned sequence number.
func (w *wal) lastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// chainFP returns the fingerprint chain at the last assigned sequence.
func (w *wal) chainFP() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fp
}

// truncate discards the on-disk log after a snapshot has durably captured
// everything up to (and including) the current sequence. The in-memory
// sequence counter keeps counting — record numbering is global, not
// per-file — so replay can tell exactly which records a snapshot already
// covers.
func (w *wal) truncate() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrWALClosed
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("authd: truncate WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("authd: sync WAL: %w", err)
	}
	w.fsyncs.Inc()
	// Everything up to the current sequence is durable via the snapshot
	// that triggered this truncate.
	w.synced = w.seq
	return nil
}

// close flushes and closes the log. Called at the end of a graceful
// drain, after every in-flight request has been answered.
func (w *wal) close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	syncErr := w.f.Sync()
	if syncErr == nil {
		w.fsyncs.Inc()
	}
	closeErr := w.f.Close()
	w.f = nil
	if w.failed == nil {
		w.failed = ErrWALClosed
	}
	if syncErr != nil {
		return fmt.Errorf("authd: close WAL: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("authd: close WAL: %w", closeErr)
	}
	return nil
}

// abandon releases the file descriptor without taking mu — the crash
// harness calls it on a server it just "killed" mid-append, where the
// panicked goroutine still notionally holds the lock. The server object
// is discarded immediately after; nothing else touches it.
func (w *wal) abandon() {
	if w.f != nil {
		_ = w.f.Close()
	}
}
