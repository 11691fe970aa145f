package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/authd"
	"repro/internal/metrics"
	"repro/internal/subproc"
)

// Replication-fault harness (`jrsnd-authority -replica-harness`, `make
// authd-replica`). It boots a three-replica group as real subprocesses —
// one durable primary with -min-sync 1 and two followers replicating from
// it — then runs fault cycles against it while a tracked client builds an
// acknowledged-state ledger through the failover client (so the harness
// itself exercises endpoint rotation and the 421-redirect-to-primary
// path):
//
//  1. Follower kill/restart: SIGKILL a follower mid-load, keep
//     acknowledging mutations (min-sync 1 is satisfied by the survivor),
//     restart it on the same directory, and require the whole group to
//     converge to one (sequence, fingerprint).
//  2. Asymmetric partition → snapshot catch-up: pause a follower's pull
//     loop (the follower cannot reach the primary; the primary never
//     dials out, so nothing else changes), push the primary past its
//     snapshot window so the paused follower's position falls off the
//     compacted stream, unpause, and require it to re-bootstrap via the
//     snapshot transfer (checked against its
//     jrsnd_authd_catchup_snapshots_total metric).
//  3. Primary kill → gated promotion → failover: pause one follower to
//     force lag, acknowledge more mutations (held only by the live
//     follower), SIGKILL the primary, then require the promotion gate to
//     REFUSE the lagging follower (409) and accept the up-to-date one;
//     clients fail over to the new primary with no reconfiguration, the
//     old primary restarts as a follower (any unacknowledged tail it
//     fsynced before dying must be detected as divergent and wiped, never
//     served), and the group converges again.
//
// After every cycle the four recovery invariants are checked against
// EVERY live replica — reads go to each replica directly, so a follower
// that lost an acknowledged mutation cannot hide behind the primary:
// no double-assigned slot, no lost acknowledged mutation,
// exactly-one-revocation, monotonic epoch. Any violation → exit 1.

const (
	replSnapEvery = 48
	replicaCount  = 3
)

// replGroup is the harness's view of the replica set. Addresses are
// reserved up front and stay fixed across restarts: every replica must
// know every other replica's URL before any of them starts, and a
// restarted replica must come back where its peers (and the ledger
// client's endpoint list) already expect it.
type replGroup struct {
	exe   string
	seed  int64
	addrs []string
	urls  []string
	dirs  []string
	kids  []*subproc.Proc // index-aligned with urls; nil while down
	out   io.Writer
}

func runReplicaHarness(opts options, out io.Writer) (int, error) {
	cycles := opts.replicaCycles
	if cycles < 1 {
		cycles = 1
	}
	exe, err := os.Executable()
	if err != nil {
		return 1, fmt.Errorf("locating own binary: %w", err)
	}
	work, err := os.MkdirTemp("", "jrsnd-replica-*")
	if err != nil {
		return 1, err
	}

	addrs, err := subproc.ReserveAddrs("tcp", replicaCount)
	if err != nil {
		return 1, err
	}
	g := &replGroup{exe: exe, seed: opts.seed, out: out, addrs: addrs, kids: make([]*subproc.Proc, replicaCount)}
	for i, addr := range addrs {
		g.urls = append(g.urls, "http://"+addr)
		g.dirs = append(g.dirs, filepath.Join(work, fmt.Sprintf("replica-%d", i)))
	}

	fmt.Fprintf(out, "replica-harness: %d-replica group (min-sync 1, snapshot-every %d) at %s\n",
		replicaCount, replSnapEvery, strings.Join(g.urls, " "))
	if err := g.startPrimary(0); err != nil {
		return 1, err
	}
	for i := 1; i < replicaCount; i++ {
		if err := g.startFollower(i); err != nil {
			return 1, err
		}
	}

	led := newLedger(3)
	for cycle := 0; cycle < cycles; cycle++ {
		fmt.Fprintf(out, "replica-harness: cycle %d — follower kill/restart under load\n", cycle)
		if err := g.followerKillCycle(led); err != nil {
			led.violate("follower kill cycle %d: %v", cycle, err)
			break
		}
		fmt.Fprintf(out, "replica-harness: cycle %d — partition + snapshot catch-up\n", cycle)
		if err := g.partitionCatchupCycle(led); err != nil {
			led.violate("partition cycle %d: %v", cycle, err)
			break
		}
		fmt.Fprintf(out, "replica-harness: cycle %d — primary kill, gated promotion, failover\n", cycle)
		if err := g.promotionCycle(led); err != nil {
			led.violate("promotion cycle %d: %v", cycle, err)
			break
		}
	}

	for _, c := range g.kids {
		if c != nil {
			c.Kill()
		}
	}
	if n := len(led.violations); n > 0 {
		fmt.Fprintf(out, "replica-harness: FAILED (%d violations)\n", n)
		for _, v := range led.violations {
			fmt.Fprintf(out, "  violation: %s\n", v)
		}
		for i, c := range g.kids {
			if c == nil {
				continue
			}
			fmt.Fprintf(out, "replica-harness: replica %d output:\n%s\n", i, c.Output())
		}
		return 1, errors.New("replica harness detected invariant violations")
	}
	os.RemoveAll(work)
	fmt.Fprintf(out, "replica-harness: all cycles passed (%d acked nodes, max acked seq %d, epoch %d)\n",
		len(led.nodes), led.ackedSeq(), led.maxEpoch)
	return 0, nil
}

func (g *replGroup) startPrimary(i int) error {
	c, err := startChild(g.exe, g.dirs[i], replSnapEvery, g.seed, []string{
		"-addr", g.addrs[i], "-min-sync", "1",
	})
	if err != nil {
		return fmt.Errorf("primary %d: %w", i, err)
	}
	g.kids[i] = c
	return nil
}

// startFollower boots replica i as a follower. The follow list is the
// whole group — including itself, which reports the follower role and is
// skipped by primary discovery — and -min-sync 1 is set so that if this
// replica is later promoted, it acknowledges under the same durability
// contract the original primary had.
func (g *replGroup) startFollower(i int) error {
	c, err := startChild(g.exe, g.dirs[i], replSnapEvery, g.seed, []string{
		"-addr", g.addrs[i],
		"-follow", strings.Join(g.urls, ","),
		"-follower-id", fmt.Sprintf("replica-%d", i),
		"-min-sync", "1",
	})
	if err != nil {
		return fmt.Errorf("follower %d: %w", i, err)
	}
	g.kids[i] = c
	return nil
}

// roles asks every live replica for its role and returns the primary's
// index plus the follower indices. Exactly one primary is itself an
// invariant here.
func (g *replGroup) roles() (int, []int, error) {
	prim := -1
	var fols []int
	for i, url := range g.urls {
		if g.kids[i] == nil {
			continue
		}
		st, err := authd.FetchReplicationStatus(nil, url)
		if err != nil {
			return 0, nil, fmt.Errorf("role probe %s: %w", url, err)
		}
		if st.Role == "primary" {
			if prim >= 0 {
				return 0, nil, fmt.Errorf("two primaries: %s and %s", g.urls[prim], url)
			}
			prim = i
		} else {
			fols = append(fols, i)
		}
	}
	if prim < 0 {
		return 0, nil, errors.New("no replica reports the primary role")
	}
	return prim, fols, nil
}

// ack drives n tracked mutations through the failover client — the same
// provision/join/revoke mix as the crash harness, routed over the full
// endpoint list. With tolerate set, ErrUnavailable is an accepted
// outcome (mid-fault there may briefly be no reachable primary);
// anything else unexpected is a violation. Only fully received responses
// enter the ledger.
func (g *replGroup) ack(led *harnessLedger, n int, tolerate bool) {
	cl := &authd.Client{Endpoints: append([]string(nil), g.urls...), ClientID: "replica-harness"}
	for i := 0; i < n; i++ {
		opCtx, cancelOp := context.WithTimeout(context.Background(), 15*time.Second)
		err := trackedStep(opCtx, cl, led, i)
		cancelOp()
		switch {
		case err == nil, errors.Is(err, authd.ErrExhausted):
		case tolerate && errors.Is(err, authd.ErrUnavailable):
		default:
			led.violate("tracked op failed: %v", err)
			return
		}
	}
}

// drive acknowledges mutations until the acked WAL sequence advances by
// at least records. Revokes always append a record, so this terminates
// even once the slot pool is exhausted; the op budget bounds it anyway.
func (g *replGroup) drive(led *harnessLedger, records uint64) error {
	target := led.ackedSeq() + records
	for budget := 0; budget < 64; budget++ {
		if led.ackedSeq() >= target {
			return nil
		}
		g.ack(led, 16, false)
		if len(led.violations) > 0 {
			return errors.New("tracked ops failed while driving the WAL forward")
		}
	}
	return fmt.Errorf("could not advance the acked sequence to %d (at %d)", target, led.ackedSeq())
}

// waitConverged polls the replica set until every live member reports
// the same (last_seq, fingerprint) and exactly one is primary.
// Fingerprint equality is the strong check: equal chains mean equal
// histories, record for record.
func (g *replGroup) waitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	last := "no probe completed"
	for time.Now().Before(deadline) {
		sts := make([]authd.ReplicationStatus, 0, len(g.urls))
		ok := true
		for i, url := range g.urls {
			if g.kids[i] == nil {
				continue
			}
			st, err := authd.FetchReplicationStatus(nil, url)
			if err != nil {
				ok = false
				last = fmt.Sprintf("%s unreachable: %v", url, err)
				break
			}
			sts = append(sts, st)
		}
		if ok && len(sts) > 0 {
			primaries := 0
			agree := true
			for _, st := range sts {
				if st.Role == "primary" {
					primaries++
				}
				if st.LastSeq != sts[0].LastSeq || st.FP != sts[0].FP {
					agree = false
				}
			}
			if primaries == 1 && agree {
				return nil
			}
			last = fmt.Sprintf("%d primaries, states %v", primaries, summarize(sts))
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("replicas did not converge within %v (last: %s)", timeout, last)
}

func summarize(sts []authd.ReplicationStatus) []string {
	out := make([]string, len(sts))
	for i, st := range sts {
		fp := st.FP
		if len(fp) > 8 {
			fp = fp[:8]
		}
		out[i] = fmt.Sprintf("%s@%d/%s", st.Role, st.LastSeq, fp)
	}
	return out
}

// verifyAll checks the ledger invariants against every live replica.
func (g *replGroup) verifyAll(led *harnessLedger) {
	for i, url := range g.urls {
		if g.kids[i] == nil {
			continue
		}
		checkLedger(url, led)
	}
}

// followerKillCycle: SIGKILL a follower while background load and
// tracked mutations are in flight, keep acknowledging with one follower
// down, restart it on its own directory, converge, verify everywhere.
func (g *replGroup) followerKillCycle(led *harnessLedger) error {
	_, fols, err := g.roles()
	if err != nil {
		return err
	}
	if len(fols) == 0 {
		return errors.New("no follower to kill")
	}
	victim := fols[len(fols)-1]

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Background load over the full endpoint list: revoke weight 0 so
		// the tracked client owns all revocation accounting, Unavailable
		// outcomes expected while the victim is down.
		_, _ = authd.RunLoad(ctx, authd.LoadConfig{
			Targets:      append([]string(nil), g.urls...),
			Workers:      3,
			Requests:     200_000,
			MixProvision: 55,
			MixJoin:      45,
			MixRevoke:    0,
			Seed:         g.seed + 17,
			Timeout:      5 * time.Second,
		})
	}()

	g.ack(led, 16, false)
	g.kids[victim].Kill()
	g.kids[victim] = nil
	// The group must keep acknowledging with one follower down: min-sync 1
	// is satisfied by the surviving follower.
	g.ack(led, 24, true)
	if err := g.startFollower(victim); err != nil {
		cancel()
		wg.Wait()
		return err
	}
	g.ack(led, 8, true)
	cancel()
	wg.Wait()

	if err := g.waitConverged(30 * time.Second); err != nil {
		return err
	}
	g.verifyAll(led)
	return nil
}

// partitionCatchupCycle: pause one follower's pull loop, push the
// primary past its snapshot window so the follower's position is
// compacted out of the stream, unpause, and require a snapshot
// re-bootstrap (observed via the follower's catch-up counter).
func (g *replGroup) partitionCatchupCycle(led *harnessLedger) error {
	_, fols, err := g.roles()
	if err != nil {
		return err
	}
	if len(fols) == 0 {
		return errors.New("no follower to partition")
	}
	lagged := g.urls[fols[0]]

	const catchups = "jrsnd_authd_catchup_snapshots_total"
	snap, err := scrapeMetrics(lagged)
	if err != nil {
		return fmt.Errorf("scrape before partition: %w", err)
	}
	before := snap.Counters[catchups]
	if err := postPause(lagged, true); err != nil {
		return fmt.Errorf("pause %s: %w", lagged, err)
	}
	// Two snapshot windows of acknowledged mutations: the primary
	// snapshots and compacts its stream, so the paused follower's
	// position precedes the stream base and only a snapshot can catch it
	// up.
	if err := g.drive(led, 2*replSnapEvery+16); err != nil {
		return err
	}
	if err := postPause(lagged, false); err != nil {
		return fmt.Errorf("unpause %s: %w", lagged, err)
	}
	if err := g.waitConverged(30 * time.Second); err != nil {
		return err
	}
	if snap, err = scrapeMetrics(lagged); err != nil {
		return fmt.Errorf("scrape after catch-up: %w", err)
	}
	after := snap.Counters[catchups]
	if after <= before {
		return fmt.Errorf("%s converged without a snapshot catch-up (counter %v -> %v); the partition did not exercise the bootstrap path", lagged, before, after)
	}
	g.verifyAll(led)
	return nil
}

// promotionCycle: induce lag on one follower, kill the primary, require
// the promotion gate to refuse the laggard and accept the up-to-date
// follower, fail clients over, rejoin the old primary as a follower, and
// converge.
func (g *replGroup) promotionCycle(led *harnessLedger) error {
	prim, fols, err := g.roles()
	if err != nil {
		return err
	}
	if len(fols) < 2 {
		return fmt.Errorf("need two followers for the promotion cycle, have %d", len(fols))
	}
	lag, up := fols[0], fols[1]

	// Lag one follower, then acknowledge mutations only the other holds.
	if err := postPause(g.urls[lag], true); err != nil {
		return fmt.Errorf("pause %s: %w", g.urls[lag], err)
	}
	g.ack(led, 16, false)
	minSeq := led.ackedSeq()

	g.kids[prim].Kill()
	g.kids[prim] = nil

	// No lost acknowledged mutation across the replica set: min-sync 1
	// means every acked record was fetched durably by at least one
	// follower before the client saw it.
	stUp, err := authd.FetchReplicationStatus(nil, g.urls[up])
	if err != nil {
		return fmt.Errorf("status of %s after primary kill: %w", g.urls[up], err)
	}
	if stUp.LastSeq < minSeq {
		return fmt.Errorf("%s holds seq %d < max acked %d: an acknowledged mutation exists on no surviving replica", g.urls[up], stUp.LastSeq, minSeq)
	}
	stLag, err := authd.FetchReplicationStatus(nil, g.urls[lag])
	if err != nil {
		return fmt.Errorf("status of %s after primary kill: %w", g.urls[lag], err)
	}
	if stLag.LastSeq >= minSeq {
		return fmt.Errorf("%s was paused but holds seq %d >= acked %d; the lag induction failed", g.urls[lag], stLag.LastSeq, minSeq)
	}

	// The promotion gate must refuse the follower that does not hold the
	// full acknowledged prefix…
	if status, err := postPromote(g.urls[lag], minSeq); err != nil {
		return fmt.Errorf("gate probe on %s: %w", g.urls[lag], err)
	} else if status != http.StatusConflict {
		return fmt.Errorf("promotion gate did not refuse the lagging follower: status %d, want %d", status, http.StatusConflict)
	}
	// …and accept the one that does.
	if status, err := postPromote(g.urls[up], minSeq); err != nil {
		return fmt.Errorf("promote %s: %w", g.urls[up], err)
	} else if status != http.StatusOK {
		return fmt.Errorf("promoting the up-to-date follower failed: status %d", status)
	}
	if err := postPause(g.urls[lag], false); err != nil {
		return fmt.Errorf("unpause %s: %w", g.urls[lag], err)
	}

	// Clients fail over: mutations keep landing through the same endpoint
	// list with no reconfiguration.
	g.ack(led, 24, true)

	// The old primary rejoins as a follower. Any unacknowledged tail it
	// fsynced before dying is not part of the acknowledged history; the
	// new primary must report it divergent and the rejoiner must wipe and
	// re-bootstrap rather than serve it.
	if err := g.startFollower(prim); err != nil {
		return err
	}
	g.ack(led, 8, true)
	if err := g.waitConverged(45 * time.Second); err != nil {
		return err
	}
	g.verifyAll(led)
	return nil
}

// postPause toggles a follower's pull loop — the harness's asymmetric
// partition (the follower stops reaching the primary; nothing else
// changes).
func postPause(url string, paused bool) error {
	body := strings.NewReader(fmt.Sprintf(`{"paused":%v}`, paused))
	resp, err := http.Post(url+"/v1/replpause", "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replpause: %s", resp.Status)
	}
	return nil
}

// postPromote asks a replica to become primary and returns the HTTP
// status — the gate refusal is a status, not a transport error.
func postPromote(url string, minSeq uint64) (int, error) {
	body := strings.NewReader(fmt.Sprintf(`{"min_seq":%d}`, minSeq))
	resp, err := http.Post(url+"/v1/promote", "application/json", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, nil
}

// scrapeMetrics fetches and parses a replica's /metrics exposition.
func scrapeMetrics(url string) (metrics.Snapshot, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return metrics.Snapshot{}, err
	}
	defer resp.Body.Close()
	return metrics.ParsePrometheus(io.LimitReader(resp.Body, 1<<22))
}
