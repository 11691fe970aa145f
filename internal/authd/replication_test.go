package authd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Replication-layer tests: the tracker's fetch statuses and fingerprint
// chain, the wire codec, follower replication end to end (including
// snapshot catch-up and divergence), synchronous-replication
// acknowledgment, the promotion gate, client failover, and the
// replication metrics exposition.

// newPrimary boots a durable primary on a real listener.
func newPrimary(t *testing.T, snapEvery int, minSync int) (*Server, string) {
	t.Helper()
	cfg := Config{
		Params: testParams(64, 4, 4),
		Seed:   11,
		Rate:   -1,
		Durable: Durability{
			Dir:           t.TempDir(),
			SnapshotEvery: snapEvery,
		},
		Replication: ReplicationConfig{MinSync: minSync, SyncTimeout: 2 * time.Second},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, "http://" + addr
}

// newFollowerOf starts a managed follower replicating from primaryURL.
func newFollowerOf(t *testing.T, primaryURL string) (*Follower, string) {
	t.Helper()
	f, err := StartFollower(FollowerConfig{
		Server: Config{
			Params:  testParams(64, 4, 4),
			Seed:    11,
			Rate:    -1,
			Durable: Durability{Dir: t.TempDir(), SnapshotEvery: -1},
		},
		Primaries:    []string{primaryURL},
		ID:           t.Name(),
		PollInterval: 5 * time.Millisecond,
		WaitMS:       50,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := f.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = f.Close(ctx)
	})
	return f, "http://" + addr
}

// waitFollowerSynced polls until the follower reports the primary's exact
// (sequence, fingerprint) or the deadline passes.
func waitFollowerSynced(t *testing.T, prim *Server, f *Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		fsrv := f.Server()
		if fsrv.repl.lastSeq() == prim.repl.lastSeq() && fsrv.repl.chainFP() == prim.repl.chainFP() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never converged: follower seq %d fp %016x, primary seq %d fp %016x",
		f.Server().repl.lastSeq(), f.Server().repl.chainFP(), prim.repl.lastSeq(), prim.repl.chainFP())
}

// TestReplTrackerStatuses drives the tracker through its three fetch
// outcomes: in-stream OK, compacted-away snapshotNeeded, and the two
// divergent shapes (stale tail beyond the head, wrong fingerprint).
func TestReplTrackerStatuses(t *testing.T) {
	tr := newReplTracker()
	frames := make([][]byte, 0, 4)
	for i := 1; i <= 4; i++ {
		frame, err := appendWALRecord(nil, walRecord{Seq: uint64(i), Kind: walRevoke, Code: int32(i), At: 1})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
		tr.extend(uint64(i), walRevoke, frame, uint64(100+i))
	}

	status, ents, lastSeq, _ := tr.fetch(0, fpBasis, 10)
	if status != replOK || len(ents) != 4 || lastSeq != 4 {
		t.Fatalf("fetch(0) = status %d, %d entries, lastSeq %d; want OK, 4, 4", status, len(ents), lastSeq)
	}
	for i, e := range ents {
		if e.seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.seq)
		}
		if string(e.frame) != string(frames[i]) {
			t.Fatalf("entry %d frame does not round-trip", i)
		}
	}

	// Resuming mid-stream with the right fingerprint: the remainder.
	status, ents, _, _ = tr.fetch(2, ents[1].fp, 10)
	if status != replOK || len(ents) != 2 {
		t.Fatalf("fetch(2) = status %d, %d entries; want OK, 2", status, len(ents))
	}

	// Wrong fingerprint at a held position: divergent.
	status, _, _, _ = tr.fetch(2, 0xdeadbeef, 10)
	if status != replDivergent {
		t.Fatalf("fetch(2, bad fp) = status %d, want divergent", status)
	}

	// Beyond the head: a stale tail from another history — divergent.
	status, _, _, _ = tr.fetch(9, 0, 10)
	if status != replDivergent {
		t.Fatalf("fetch(9) = status %d, want divergent", status)
	}

	// Compact past seq 3: positions before it now need a snapshot.
	tr.compact(3)
	status, _, _, snapSeq := tr.fetch(1, 0, 10)
	if status != replSnapshotNeeded || snapSeq != 3 {
		t.Fatalf("fetch(1) after compact(3) = status %d snapSeq %d; want snapshotNeeded, 3", status, snapSeq)
	}
	// The base position itself still streams.
	status, ents, _, _ = tr.fetch(3, tr.fpAt(3), 10)
	if status != replOK || len(ents) != 1 || ents[0].seq != 4 {
		t.Fatalf("fetch(3) after compact(3) = status %d, %d entries; want OK, [seq 4]", status, len(ents))
	}
}

// fpAt is a test helper exposing fpAtLocked.
func (t *replTracker) fpAt(seq uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fpAtLocked(seq)
}

// TestReplResponseRoundTrip checks the wire codec both ways and its
// bounded-decode rejections.
func TestReplResponseRoundTrip(t *testing.T) {
	frame, err := appendWALRecord(nil, walRecord{Seq: 7, Kind: walJoin, Node: 3, Tag: "x", At: 5})
	if err != nil {
		t.Fatal(err)
	}
	ents := []replEntry{{seq: 7, fp: 0xabc, frame: frame}}
	raw := encodeReplResponse(replOK, 9, 4, ents)
	b, err := decodeReplResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if b.status != replOK || b.lastSeq != 9 || b.snapSeq != 4 || len(b.entries) != 1 {
		t.Fatalf("decoded %+v", b)
	}
	// The sequence lives inside the frame, not beside it: decode proves it.
	if b.entries[0].fp != 0xabc || string(b.entries[0].frame) != string(frame) {
		t.Fatalf("entry did not round-trip: %+v", b.entries[0])
	}
	rec, _, err := parseWALRecord(b.entries[0].frame)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 7 {
		t.Fatalf("decoded frame carries seq %d, want 7", rec.Seq)
	}

	if _, err := decodeReplResponse(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated response decoded")
	}
	if _, err := decodeReplResponse(append(raw, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := decodeReplResponse([]byte{99}); err == nil {
		t.Fatal("bad status accepted")
	}
}

// TestApplyReplicatedMatchesPrimary replicates a primary's stream into a
// follower-role server record by record and requires the fingerprint
// chains to agree at every step — determinism of the state machine is
// what makes follower promotion sound.
func TestApplyReplicatedMatchesPrimary(t *testing.T) {
	prim, err := New(Config{
		Params:  testParams(64, 4, 4),
		Seed:    11,
		Rate:    -1,
		Durable: Durability{Dir: t.TempDir(), SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := New(Config{
		Params:   testParams(64, 4, 4),
		Seed:     11,
		Rate:     -1,
		Follower: true,
		Durable:  Durability{Dir: t.TempDir(), SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := prim.provision(3, "repl"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := prim.join("late"); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.revoke(2); err != nil {
		t.Fatal(err)
	}

	_, ents, lastSeq, _ := prim.repl.fetch(0, fpBasis, 100)
	if lastSeq != 3 || len(ents) != 3 {
		t.Fatalf("primary streamed %d entries to seq %d, want 3 to 3", len(ents), lastSeq)
	}
	for _, e := range ents {
		if err := fol.applyReplicated(e.frame, e.fp); err != nil {
			t.Fatalf("apply seq %d: %v", e.seq, err)
		}
		if got := fol.repl.chainFP(); got != e.fp {
			t.Fatalf("after seq %d follower fp %016x, primary chained %016x", e.seq, got, e.fp)
		}
	}
	if fol.repl.lastSeq() != prim.repl.lastSeq() || fol.repl.chainFP() != prim.repl.chainFP() {
		t.Fatalf("replicas disagree: follower (%d, %016x) primary (%d, %016x)",
			fol.repl.lastSeq(), fol.repl.chainFP(), prim.repl.lastSeq(), prim.repl.chainFP())
	}

	// The replicated state answers reads identically.
	fi := fol.epochInfo()
	pi := prim.epochInfo()
	if fi != pi {
		t.Fatalf("epoch info diverged: follower %+v primary %+v", fi, pi)
	}
}

// TestApplyReplicatedDivergenceIsLoud feeds a follower a record whose
// claimed fingerprint cannot match and requires the loud-failure
// contract: ErrReplicaDiverged, the divergence counter, and a poisoned
// durable layer that refuses every further mutation.
func TestApplyReplicatedDivergenceIsLoud(t *testing.T) {
	fol, err := New(Config{
		Params:   testParams(64, 4, 4),
		Seed:     11,
		Rate:     -1,
		Follower: true,
		Durable:  Durability{Dir: t.TempDir(), SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := appendWALRecord(nil, walRecord{Seq: 1, Kind: walRevoke, Code: 1, At: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = fol.applyReplicated(frame, 0x1234)
	if !errors.Is(err, ErrReplicaDiverged) {
		t.Fatalf("apply with impossible fingerprint = %v, want ErrReplicaDiverged", err)
	}

	// Poisoned: the durable layer refuses further records.
	frame2, _ := appendWALRecord(nil, walRecord{Seq: 2, Kind: walRevoke, Code: 2, At: 1})
	if err := fol.applyReplicated(frame2, 0x5678); err == nil {
		t.Fatal("poisoned follower accepted another record")
	}

	// The counter is on the exposition surface.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	fol.Handler().ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), "jrsnd_authd_divergence_panics_total 1") {
		t.Fatalf("/metrics missing divergence counter:\n%s", w.Body.String())
	}
}

// TestFollowerReplicatesEndToEnd runs a real primary/follower pair over
// HTTP: mutations land on the primary, the follower converges to the
// same fingerprint, serves reads, and refuses mutations with a 421 that
// names the primary.
func TestFollowerReplicatesEndToEnd(t *testing.T) {
	prim, primURL := newPrimary(t, -1, 0)
	f, folURL := newFollowerOf(t, primURL)

	cl := &Client{Base: primURL, ClientID: t.Name()}
	ctx := context.Background()
	res, err := cl.Provision(ctx, 3, "repl")
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq == 0 {
		t.Fatal("durable provision carried no sequence")
	}
	if _, err := cl.Join(ctx, "late"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Revoke(ctx, 2); err != nil {
		t.Fatal(err)
	}
	waitFollowerSynced(t, prim, f)

	// Reads serve from the follower.
	fcl := &Client{Base: folURL, ClientID: t.Name() + "-reads"}
	ni, err := fcl.Node(ctx, res.Nodes[0].Node)
	if err != nil {
		t.Fatalf("follower read: %v", err)
	}
	if len(ni.Codes) != len(res.Nodes[0].Codes) {
		t.Fatalf("follower node codes %v, acked %v", ni.Codes, res.Nodes[0].Codes)
	}

	// Mutations on the follower: 421 with the primary hint.
	resp, err := http.Post(folURL+"/v1/provision", "application/json", strings.NewReader(`{"count":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower mutation = %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get("X-JRSND-Primary"); got != primURL {
		t.Fatalf("421 hint %q, want %q", got, primURL)
	}

	// Replication status from both sides.
	pst, err := FetchReplicationStatus(primURL)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Role != "primary" || !pst.Durable || pst.LastSeq != prim.repl.lastSeq() {
		t.Fatalf("primary status %+v", pst)
	}
	if n := len(pst.Followers); n != 1 {
		t.Fatalf("primary reports %d follower acks, want 1 (%+v)", n, pst.Followers)
	}
	fst, err := FetchReplicationStatus(folURL)
	if err != nil {
		t.Fatal(err)
	}
	if fst.Role != "follower" || fst.Primary != primURL || fst.FP != pst.FP {
		t.Fatalf("follower status %+v vs primary %+v", fst, pst)
	}
}

// TestFollowerSnapshotCatchup starts a follower against a primary whose
// stream has already been compacted by snapshots: the only way in is the
// snapshot transfer, and the catch-up counter must say it happened.
func TestFollowerSnapshotCatchup(t *testing.T) {
	prim, primURL := newPrimary(t, 4, 0)
	cl := &Client{Base: primURL, ClientID: t.Name()}
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		if _, err := cl.Revoke(ctx, int32(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	if base := func() uint64 { prim.repl.mu.Lock(); defer prim.repl.mu.Unlock(); return prim.repl.baseSeq }(); base == 0 {
		t.Fatal("primary never compacted; the catch-up path is not exercised")
	}

	f, folURL := newFollowerOf(t, primURL)
	waitFollowerSynced(t, prim, f)

	resp, err := http.Get(folURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	resp.Body.Close()
	if !strings.Contains(string(body), "jrsnd_authd_catchup_snapshots_total 1") {
		t.Fatalf("follower /metrics missing catch-up counter:\n%s", body)
	}

	// Post-catch-up replication still streams incrementally.
	if _, err := cl.Revoke(ctx, 1); err != nil {
		t.Fatal(err)
	}
	waitFollowerSynced(t, prim, f)
}

// replGet is a raw replication fetch, standing in for a follower.
func replGet(t *testing.T, base, id string, after, fp uint64, waitMS int) replBatch {
	t.Helper()
	url := fmt.Sprintf("%s/v1/replicate?after=%d&fp=%016x&max=64&wait_ms=%d", base, after, fp, waitMS)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-JRSND-Follower", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, replMaxResp+1))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate fetch: %s: %s", resp.Status, body)
	}
	b, err := decodeReplResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMinSyncAcknowledgment: with MinSync 1 a mutation is acknowledged
// only after a follower's fetch cursor covers it, and times out with 503
// when no follower keeps up.
func TestMinSyncAcknowledgment(t *testing.T) {
	_, primURL := newPrimary(t, -1, 1)

	// No follower at all: the mutation must come back 503 after the sync
	// timeout (the config uses 2 s).
	slow := &Client{Base: primURL, ClientID: t.Name(), MaxAttempts: 1}
	start := time.Now()
	_, err := slow.Provision(context.Background(), 1, "unsynced")
	if err == nil {
		t.Fatal("mutation acknowledged with no follower under MinSync 1")
	}
	if !strings.Contains(err.Error(), "sync") {
		t.Fatalf("unsynced mutation error %v, want a sync-timeout failure", err)
	}
	if time.Since(start) < time.Second {
		t.Fatalf("503 came back in %v — the primary did not wait for the sync window", time.Since(start))
	}

	// With a fetching follower the same mutation acknowledges promptly:
	// run the mutation concurrently with a minimal hand-rolled follower
	// whose advancing `after` cursor is the durable acknowledgment.
	done := make(chan error, 1)
	go func() {
		_, err := (&Client{Base: primURL, ClientID: t.Name() + "-synced", MaxAttempts: 1}).
			Provision(context.Background(), 1, "synced")
		done <- err
	}()
	after, fp := uint64(0), uint64(fpBasis)
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("mutation with live follower: %v", err)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("mutation never acknowledged despite follower acks")
		}
		b := replGet(t, primURL, "hand-follower", after, fp, 50)
		if b.status != replOK {
			t.Fatalf("hand follower got status %d", b.status)
		}
		if n := len(b.entries); n > 0 {
			// Entries are the contiguous records after the cursor; the seq is
			// inside each frame, so advance by count.
			after += uint64(n)
			fp = b.entries[n-1].fp
		}
	}
}

// TestPromotionGate: a follower refuses promotion while it lacks the
// acknowledged prefix (409) and accepts once it holds it; after
// promotion it acknowledges mutations as the primary.
func TestPromotionGate(t *testing.T) {
	prim, primURL := newPrimary(t, -1, 0)
	f, folURL := newFollowerOf(t, primURL)

	cl := &Client{Base: primURL, ClientID: t.Name()}
	ctx := context.Background()
	res, err := cl.Provision(ctx, 2, "pre")
	if err != nil {
		t.Fatal(err)
	}
	waitFollowerSynced(t, prim, f)

	promote := func(url string, minSeq uint64) int {
		resp, err := http.Post(url+"/v1/promote", "application/json",
			strings.NewReader(fmt.Sprintf(`{"min_seq":%d}`, minSeq)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return resp.StatusCode
	}

	// Beyond what the follower holds: refused, still a follower.
	if code := promote(folURL, res.Seq+100); code != http.StatusConflict {
		t.Fatalf("premature promotion = %d, want 409", code)
	}
	if !f.Server().isFollower() {
		t.Fatal("refused promotion still flipped the role")
	}

	// At the acknowledged prefix: accepted.
	if code := promote(folURL, res.Seq); code != http.StatusOK {
		t.Fatalf("promotion = %d, want 200", code)
	}
	if f.Server().isFollower() {
		t.Fatal("accepted promotion did not flip the role")
	}

	// The promoted replica acknowledges mutations and its exposition says
	// primary.
	ncl := &Client{Base: folURL, ClientID: t.Name() + "-post"}
	if _, err := ncl.Provision(ctx, 1, "post-promotion"); err != nil {
		t.Fatalf("mutation on promoted replica: %v", err)
	}
	resp, err := http.Get(folURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	resp.Body.Close()
	if !strings.Contains(string(body), `jrsnd_authd_role{role="primary"} 1`) {
		t.Fatalf("promoted replica /metrics does not report the primary role:\n%s", body)
	}
}

// TestClientFailoverDeterministicOrder: two clients with identical
// configuration walk identical endpoint permutations — failover behavior
// is reproducible without injection.
func TestClientFailoverDeterministicOrder(t *testing.T) {
	eps := []string{"http://a:1", "http://b:2", "http://c:3"}
	c1 := &Client{Endpoints: eps, ClientID: "same"}
	c2 := &Client{Endpoints: eps, ClientID: "same"}
	for i := 0; i < 6; i++ {
		b1, b2 := c1.currentBase(), c2.currentBase()
		if b1 != b2 {
			t.Fatalf("step %d: clients diverged (%s vs %s)", i, b1, b2)
		}
		c1.rotate(b1)
		c2.rotate(b2)
	}

	// A pinned hint overrides the permutation; a failure on the pinned
	// endpoint drops back to it.
	c1.pin("http://primary:9")
	if got := c1.currentBase(); got != "http://primary:9" {
		t.Fatalf("pinned base %s", got)
	}
	c1.rotate("http://primary:9")
	if got := c1.currentBase(); got == "http://primary:9" {
		t.Fatal("failed pin still selected")
	}
}

// TestClientFailoverRedirect: a mutation aimed at a replica set whose
// first probes hit followers or dead endpoints still lands, via rotation
// and the 421 pin; exhausting everything yields ErrUnavailable.
func TestClientFailoverRedirect(t *testing.T) {
	prim, primURL := newPrimary(t, -1, 0)
	f, folURL := newFollowerOf(t, primURL)
	_ = f

	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // a replica that is down: connection refused

	cl := &Client{Endpoints: []string{deadURL, folURL, primURL}, ClientID: t.Name()}
	res, err := cl.Provision(context.Background(), 1, "failover")
	if err != nil {
		t.Fatalf("provision across mixed replica set: %v", err)
	}
	if res.Seq == 0 || res.Seq != prim.repl.lastSeq() {
		t.Fatalf("mutation did not land on the primary (seq %d, primary at %d)", res.Seq, prim.repl.lastSeq())
	}

	// All endpoints down or follower-only: ErrUnavailable.
	only := &Client{Endpoints: []string{deadURL}, ClientID: t.Name(), MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond}
	if _, err := only.Provision(context.Background(), 1, "nowhere"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dead replica set error %v, want ErrUnavailable", err)
	}
}

// TestConcurrentFailoverDuringPromotion hammers a two-replica set with
// concurrent failover clients while the primary shuts down and the
// follower is promoted; every outcome must be an acknowledged mutation
// or ErrUnavailable/ErrSyncTimeout-shaped unavailability — never a lost
// acknowledgment or a double assignment.
func TestConcurrentFailoverDuringPromotion(t *testing.T) {
	prim, primURL := newPrimary(t, -1, 0)
	f, folURL := newFollowerOf(t, primURL)

	cl := &Client{Base: primURL, ClientID: t.Name()}
	if _, err := cl.Provision(context.Background(), 1, "seed"); err != nil {
		t.Fatal(err)
	}
	waitFollowerSynced(t, prim, f)

	type acked struct {
		node  int
		codes string
	}
	var mu sync.Mutex
	var acks []acked

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &Client{
				Endpoints:   []string{primURL, folURL},
				ClientID:    fmt.Sprintf("%s-%d", t.Name(), w),
				MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond,
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				res, err := c.Join(ctx, "churn")
				cancel()
				if err == nil {
					mu.Lock()
					acks = append(acks, acked{node: res.Node, codes: fmt.Sprint(res.Codes)})
					mu.Unlock()
				} else if !errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrExhausted) && !errors.Is(err, ErrSyncTimeout) {
					t.Errorf("worker %d: unexpected failure shape: %v", w, err)
					return
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = prim.Shutdown(ctx)
	cancel()
	resp, err := http.Post(folURL+"/v1/promote", "application/json",
		strings.NewReader(fmt.Sprintf(`{"min_seq":%d}`, f.Server().repl.lastSeq())))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promotion during churn = %d", resp.StatusCode)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every acknowledged admission must still be present on the survivor
	// with exactly its acked codes, each node acked at most once.
	ncl := &Client{Base: folURL, ClientID: t.Name() + "-verify"}
	seen := map[int]string{}
	for _, a := range acks {
		if prev, ok := seen[a.node]; ok && prev != a.codes {
			t.Fatalf("node %d acknowledged twice with different codes", a.node)
		}
		seen[a.node] = a.codes
		ni, err := ncl.Node(context.Background(), a.node)
		if err != nil {
			t.Fatalf("acked node %d lost after promotion: %v", a.node, err)
		}
		if fmt.Sprint(ni.Codes) != a.codes {
			t.Fatalf("node %d holds %v, acked %s", a.node, ni.Codes, a.codes)
		}
	}
	if len(acks) == 0 {
		t.Fatal("no mutation was acknowledged during the churn window — the test exercised nothing")
	}
}

// TestReplicationMetricsExposition pins the exposition surface: role
// gauges, lag gauge, and the streamed/applied counters on both sides of
// a replicating pair.
func TestReplicationMetricsExposition(t *testing.T) {
	prim, primURL := newPrimary(t, -1, 0)
	f, folURL := newFollowerOf(t, primURL)

	cl := &Client{Base: primURL, ClientID: t.Name()}
	for i := 0; i < 3; i++ {
		if _, err := cl.Revoke(context.Background(), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFollowerSynced(t, prim, f)

	scrape := func(url string) string {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	pm := scrape(primURL)
	for _, want := range []string{
		`jrsnd_authd_role{role="primary"} 1`,
		`jrsnd_authd_role{role="follower"} 0`,
		"jrsnd_authd_replication_streamed_records_total 3",
		"jrsnd_authd_divergence_panics_total 0",
	} {
		if !strings.Contains(pm, want) {
			t.Fatalf("primary /metrics missing %q:\n%s", want, pm)
		}
	}

	fm := scrape(folURL)
	for _, want := range []string{
		`jrsnd_authd_role{role="primary"} 0`,
		`jrsnd_authd_role{role="follower"} 1`,
		"jrsnd_authd_replication_applied_records_total 3",
		"jrsnd_authd_replication_lag_records 0",
		"jrsnd_authd_catchup_snapshots_total 0",
	} {
		if !strings.Contains(fm, want) {
			t.Fatalf("follower /metrics missing %q:\n%s", want, fm)
		}
	}
}
