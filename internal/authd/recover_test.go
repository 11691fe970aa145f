package authd

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/codepool"
)

// Recovery semantics over real directories: clean restarts, torn tails,
// snapshot+WAL convergence, identity checks, and the concurrent
// mutations-racing-a-snapshot cut (run under -race in tier1).

func durableParams() analysis.Params {
	p := analysis.Defaults()
	p.N, p.M, p.L, p.Gamma, p.Q = 64, 8, 4, 2, 0
	return p
}

func durableServer(t testing.TB, dir string, d Durability) *Server {
	t.Helper()
	d.Dir = dir
	s, err := New(Config{Params: durableParams(), Seed: 7, Rate: -1, Durable: d})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mutate drives a deterministic mix directly against the mutation paths
// and returns the number of acknowledged mutations.
func mutate(t testing.TB, s *Server, provisions, joins, revokes int) {
	t.Helper()
	for i := 0; i < provisions; i++ {
		if _, _, err := s.provision(2, "prov"); err != nil && !errors.Is(err, ErrExhausted) {
			t.Fatal(err)
		}
	}
	for i := 0; i < joins; i++ {
		if _, _, _, err := s.join("late"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < revokes; i++ {
		if _, err := s.revoke(codepool.CodeID(i % 5)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Durability{SnapshotEvery: -1})
	mutate(t, s, 6, 9, 12)
	want := s.stateFingerprint()
	if err := s.wal.close(); err != nil {
		t.Fatal(err)
	}

	s2 := durableServer(t, dir, Durability{SnapshotEvery: -1})
	defer func() { _ = s2.wal.close() }()
	if got := s2.stateFingerprint(); got != want {
		t.Fatalf("recovered state differs:\n--- want\n%s--- got\n%s", want, got)
	}
	if s2.m.walReplayed.Value() == 0 {
		t.Fatal("no records replayed")
	}
	// The recovered server keeps serving: the next join continues the
	// deterministic admission sequence without colliding.
	if _, _, _, err := s2.join("after-restart"); err != nil {
		t.Fatal(err)
	}
}

// TestProvisionCursorMatchesRecovery drives provisions past exhaustion:
// refused and clamped claims must leave the live slot cursor where
// replaying the log puts it, or a restart would change /v1/epoch's
// provisioned count.
func TestProvisionCursorMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Durability{SnapshotEvery: -1})
	mutate(t, s, 40, 0, 0) // 40 × 2 slots against N = 64
	want := s.stateFingerprint()
	if err := s.wal.close(); err != nil {
		t.Fatal(err)
	}

	s2 := durableServer(t, dir, Durability{SnapshotEvery: -1})
	defer func() { _ = s2.wal.close() }()
	if got := s2.stateFingerprint(); got != want {
		t.Fatalf("recovered state differs from the live server:\n--- live\n%s--- recovered\n%s", want, got)
	}
}

func TestDurableRestartAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Durability{SnapshotEvery: -1})
	mutate(t, s, 4, 6, 8)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Mutations after the snapshot land in the (now truncated) WAL.
	mutate(t, s, 2, 3, 4)
	want := s.stateFingerprint()
	if err := s.wal.close(); err != nil {
		t.Fatal(err)
	}

	fi, err := os.Stat(filepath.Join(dir, snapFileName))
	if err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("empty snapshot")
	}

	s2 := durableServer(t, dir, Durability{SnapshotEvery: -1})
	defer func() { _ = s2.wal.close() }()
	if got := s2.stateFingerprint(); got != want {
		t.Fatalf("snapshot+WAL recovery differs:\n--- want\n%s--- got\n%s", want, got)
	}
}

func TestTornTailTruncatedOnBoot(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Durability{SnapshotEvery: -1})
	mutate(t, s, 3, 2, 5)
	want := s.stateFingerprint()
	if err := s.wal.close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append: half a valid record's bytes at the tail.
	frame, err := appendWALRecord(nil, walRecord{Seq: 999, Kind: walRevoke, Code: 3, At: 1})
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := durableServer(t, dir, Durability{SnapshotEvery: -1})
	defer func() { _ = s2.wal.close() }()
	if got := s2.stateFingerprint(); got != want {
		t.Fatalf("torn-tail recovery differs:\n--- want\n%s--- got\n%s", want, got)
	}
	if s2.m.walTornTails.Value() != 1 {
		t.Fatalf("torn truncations %d, want 1", s2.m.walTornTails.Value())
	}
}

func TestMiddleCorruptionRefusedOnBoot(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Durability{SnapshotEvery: -1})
	mutate(t, s, 3, 2, 5)
	if err := s.wal.close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderLen+2] ^= 0xFF // damage the first record's body
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Params: durableParams(), Seed: 7, Rate: -1, Durable: Durability{Dir: dir}})
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("boot on middle-corrupted log: %v, want ErrWALCorrupt", err)
	}
}

func TestIdentityMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Durability{SnapshotEvery: -1})
	if err := s.wal.close(); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Params: durableParams(), Seed: 8, Rate: -1, Durable: Durability{Dir: dir}})
	if err == nil || !strings.Contains(err.Error(), "different authority") {
		t.Fatalf("boot with different seed: %v, want identity refusal", err)
	}
}

func TestStaleSnapshotTmpRemoved(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, snapTmpName)
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := durableServer(t, dir, Durability{SnapshotEvery: -1})
	defer func() { _ = s.wal.close() }()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot tmp survived boot: %v", err)
	}
}

func TestAutoSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Durability{SnapshotEvery: 5})
	defer func() { _ = s.wal.close() }()
	// noteMutation is the handlers' post-acknowledgment tick; call it the
	// way they do.
	for i := 0; i < 12; i++ {
		if _, err := s.revoke(codepool.CodeID(1)); err != nil {
			t.Fatal(err)
		}
		s.noteMutation()
	}
	if s.m.snapshots.Value() < 2 {
		t.Fatalf("snapshots %d after 12 mutations at cadence 5, want >= 2", s.m.snapshots.Value())
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName)); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
}

// TestConcurrentMutationsRacingSnapshot is the -race satellite: joins,
// provisions, and revokes hammer the server while snapshots fire
// concurrently. The snapshot must be a consistent cut across the registry
// shards and the revocation table, and a restart from snapshot+WAL must
// converge to exactly the live state.
func TestConcurrentMutationsRacingSnapshot(t *testing.T) {
	dir := t.TempDir()
	p := analysis.Defaults()
	p.N, p.M, p.L, p.Gamma, p.Q = 256, 8, 4, 2, 0
	s, err := New(Config{Params: p, Seed: 11, Rate: -1, Durable: Durability{Dir: dir, SnapshotEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch (w + i) % 3 {
				case 0:
					if _, _, err := s.provision(1, "race"); err != nil && !errors.Is(err, ErrExhausted) {
						t.Error(err)
						return
					}
				case 1:
					if _, _, _, err := s.join("race"); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := s.revoke(codepool.CodeID(i % 7)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := s.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	want := s.stateFingerprint()
	if err := s.wal.close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Params: p, Seed: 11, Rate: -1, Durable: Durability{Dir: dir, SnapshotEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.wal.close() }()
	if got := s2.stateFingerprint(); got != want {
		t.Fatalf("replay after racing snapshots diverged:\n--- live\n%s--- recovered\n%s", want, got)
	}
}

func TestShutdownClosesWAL(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, Durability{SnapshotEvery: -1})
	mutate(t, s, 1, 1, 1)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Drained means the log is flushed and closed: further mutations are
	// refused rather than silently unlogged.
	if _, _, _, err := s.join("after-drain"); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("join after Shutdown: %v, want ErrWALClosed", err)
	}
}

// chainOf reads the durable server's (last sequence, fingerprint chain).
func chainOf(s *Server) (uint64, uint64) {
	return s.wal.lastSeq(), s.wal.chainFP()
}

// TestChainSurvivesRecovery: the fingerprint chain is durable state (the
// snapshot stores it and replay extends it), so reopening a directory must
// reproduce the live (lastSeq, chain) pair, from the WAL alone and from a
// snapshot taken mid-history. The literals pin the fold itself.
func TestChainSurvivesRecovery(t *testing.T) {
	const wantSeq, wantFP uint64 = 21, 0xc507c1b67f6e2574
	for _, tc := range []struct {
		name string
		snap bool
	}{{"wal only", false}, {"snapshot mid-history", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := durableServer(t, dir, Durability{SnapshotEvery: -1})
			mutate(t, s, 3, 4, 5)
			if tc.snap {
				if err := s.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			mutate(t, s, 2, 3, 4)
			seq, fp := chainOf(s)
			if seq != wantSeq || fp != wantFP {
				t.Fatalf("live chain (%d, %#016x), want (%d, %#016x)", seq, fp, wantSeq, wantFP)
			}
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}

			s2 := durableServer(t, dir, Durability{SnapshotEvery: -1})
			defer func() { _ = s2.Shutdown(context.Background()) }()
			if seq2, fp2 := chainOf(s2); seq2 != seq || fp2 != fp {
				t.Fatalf("reopened chain (%d, %#016x), live (%d, %#016x)", seq2, fp2, seq, fp)
			}
		})
	}
}
