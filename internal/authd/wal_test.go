package authd

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// WAL codec + scan semantics: round-trips, the torn-tail rule, and the
// refuse-to-skip-a-middle-record rule.

func walCounters(t testing.TB) (*metrics.Counter, *metrics.Counter) {
	t.Helper()
	reg := metrics.New()
	return reg.Counter("test_appends", "t"), reg.Counter("test_fsyncs", "t")
}

func testWAL(t testing.TB) *wal {
	t.Helper()
	appends, fsyncs := walCounters(t)
	w, err := openWAL(filepath.Join(t.TempDir(), walFileName), 0, nil, nil, appends, fsyncs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.close() })
	return w
}

func sampleRecords() []walRecord {
	return []walRecord{
		{Kind: walProvision, Start: 0, Count: 4, Tag: "batch-a", At: 111},
		{Kind: walJoin, Node: 48, Expanded: true, Tag: "late", At: 222},
		{Kind: walRevoke, Code: 17, At: 333},
		{Kind: walProvision, Start: 4, Count: 1, At: 444},
		{Kind: walJoin, Node: 49, At: 555},
	}
}

func TestWALRoundTrip(t *testing.T) {
	w := testWAL(t)
	want := sampleRecords()
	for _, rec := range want {
		if _, err := w.append(rec, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.lastSeq(); got != uint64(len(want)) {
		t.Fatalf("lastSeq %d, want %d", got, len(want))
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	recs, goodLen, err := scanWAL(data)
	if err != nil {
		t.Fatal(err)
	}
	if goodLen != len(data) {
		t.Fatalf("goodLen %d of %d", goodLen, len(data))
	}
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d", i, rec.Seq)
		}
		exp := want[i]
		exp.Seq = uint64(i + 1)
		if rec != exp {
			t.Errorf("record %d: %+v, want %+v", i, rec, exp)
		}
	}
}

func TestWALTornTailTruncates(t *testing.T) {
	w := testWAL(t)
	for _, rec := range sampleRecords() {
		if _, err := w.append(rec, 0); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	full, fullLen, err := scanWAL(data)
	if err != nil || fullLen != len(data) {
		t.Fatalf("clean scan: %v", err)
	}
	// Every proper prefix that tears the last record must scan to exactly
	// the records before it.
	lastStart := 0
	for i := 0; i < len(full)-1; i++ {
		_, n, err := parseWALRecord(data[lastStart:])
		if err != nil {
			t.Fatal(err)
		}
		lastStart += n
	}
	for cut := lastStart + 1; cut < len(data); cut++ {
		recs, goodLen, err := scanWAL(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if goodLen != lastStart {
			t.Fatalf("cut %d: goodLen %d, want %d", cut, goodLen, lastStart)
		}
		if len(recs) != len(full)-1 {
			t.Fatalf("cut %d: %d records, want %d", cut, len(recs), len(full)-1)
		}
	}
}

func TestWALMiddleCorruptionRefused(t *testing.T) {
	w := testWAL(t)
	for _, rec := range sampleRecords() {
		if _, err := w.append(rec, 0); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the second record's body: a damaged record with
	// valid successors is a lost acknowledged mutation, not a torn tail.
	_, n0, err := parseWALRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), data...)
	corrupted[n0+walHeaderLen+2] ^= 0xFF
	if _, _, err := scanWAL(corrupted); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("scan of middle-corrupted log: %v, want ErrWALCorrupt", err)
	}
}

func TestWALSequenceGapRefused(t *testing.T) {
	// Hand-build a log whose records are individually valid but whose
	// sequence numbers skip: 1 then 3.
	var data []byte
	var err error
	data, err = appendWALRecord(data, walRecord{Seq: 1, Kind: walRevoke, Code: 1, At: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err = appendWALRecord(data, walRecord{Seq: 3, Kind: walRevoke, Code: 2, At: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := scanWAL(data); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("scan of gapped log: %v, want ErrWALCorrupt", err)
	}
}

func TestWALStickyFailureAfterClose(t *testing.T) {
	w := testWAL(t)
	if _, err := w.append(walRecord{Kind: walRevoke, Code: 1, At: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(walRecord{Kind: walRevoke, Code: 2, At: 2}, 0); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("append after close: %v, want ErrWALClosed", err)
	}
}

func TestWALRejectsOversizedTag(t *testing.T) {
	w := testWAL(t)
	big := make([]byte, walMaxTag+1)
	for i := range big {
		big[i] = 'x'
	}
	if _, err := w.append(walRecord{Kind: walJoin, Node: 1, Tag: string(big), At: 1}, 0); err == nil {
		t.Fatal("oversized tag accepted")
	}
	// The failure is sticky by design (memory/log divergence).
	if _, err := w.append(walRecord{Kind: walRevoke, Code: 1, At: 1}, 0); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("append after encode failure: %v, want sticky ErrWALClosed", err)
	}
}

// TestWALGroupFsync drives concurrent appenders through the one commit
// path: every append returns only once its record is under the synced
// watermark, fsyncs never outnumber appends, and the log reads back as
// one gapless sequence.
func TestWALGroupFsync(t *testing.T) {
	const writers, perWriter = 8, 64
	appends, fsyncs := walCounters(t)
	w, err := openWAL(filepath.Join(t.TempDir(), walFileName), 0, nil, nil, appends, fsyncs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := w.append(walRecord{Kind: walRevoke, Code: int32(g*perWriter + i), At: int64(i)}, 0)
				if err != nil {
					errs <- err
					return
				}
				w.syncMu.Lock()
				synced := w.synced
				w.syncMu.Unlock()
				if seq > synced {
					errs <- fmt.Errorf("append returned seq %d above the synced watermark %d", seq, synced)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	const total = writers * perWriter
	if got := appends.Value(); got != total {
		t.Fatalf("appends %d, want %d", got, total)
	}
	if got := fsyncs.Value(); got > total {
		t.Fatalf("fsyncs %d for %d appends", got, total)
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	recs, goodLen, err := scanWAL(data)
	if err != nil || goodLen != len(data) {
		t.Fatalf("scan: %v (goodLen %d of %d)", err, goodLen, len(data))
	}
	if len(recs) != total {
		t.Fatalf("%d records read back, want %d", len(recs), total)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, rec.Seq)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}
