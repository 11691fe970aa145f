package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/authd"
	"repro/internal/codepool"
	"repro/internal/subproc"
)

// Crash-fault harness (`jrsnd-authority -crash-harness`, `make
// authd-crash`). Two phases:
//
// Phase 1 runs the in-process matrix (authd.RunCrashMatrix) exhaustively:
// every crash point, many cycles, with the panic-based hook standing in
// for process death.
//
// Phase 2 is the real thing: for each crash point it re-executes this
// binary as a durable server armed to os.Exit(137) at that point, hammers
// it over HTTP with the load generator plus a tracked client whose
// acknowledged responses form a ledger, waits for the child to die, then
// boots a clean child on the same data directory and checks the four
// recovery invariants against the ledger: no double-assigned slot (every
// acked node still holds exactly its acked codes), no lost acknowledged
// mutation, exactly-one-revocation, monotonic epoch. Each verify child is
// stopped with SIGTERM, so graceful drain-flushes-WAL is exercised every
// cycle: mutations acked just before the SIGTERM must survive into the
// next cycle's recovery.
//
// Any violation → exit 1.

// crashExitCode is how an armed child dies — the conventional SIGKILL
// status, distinguishable from flag errors (2) and ordinary failures (1).
const crashExitCode = 137

// harness pool sizing: small enough that provisions exhaust and joins
// trigger expansion rounds (epoch bumps) within a cycle's traffic.
const (
	harnessN     = 96
	harnessM     = 8
	harnessL     = 4
	harnessGamma = 3
)

// harnessLedger accumulates acknowledged state across every child of one
// crash point. Only fully received responses enter it, so everything in
// here was acknowledged and must survive any crash.
type harnessLedger struct {
	mu             sync.Mutex
	nodes          map[int][]codepool.CodeID
	maxEpoch       int
	maxSeq         uint64 // highest WAL sequence any acknowledged response carried
	revCode        int32
	revAcks        int
	revokedNowAcks int
	violations     []string
}

func newLedger(revCode int32) *harnessLedger {
	return &harnessLedger{nodes: map[int][]codepool.CodeID{}, revCode: revCode}
}

// ackSeq records the WAL sequence of an acknowledged mutation — the
// replica harness's promotion gate uses the maximum as "what any client
// knows was acknowledged".
func (l *harnessLedger) ackSeq(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.maxSeq {
		l.maxSeq = seq
	}
}

func (l *harnessLedger) ackedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxSeq
}

func (l *harnessLedger) violate(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.violations = append(l.violations, fmt.Sprintf(format, args...))
}

func (l *harnessLedger) ackAssign(node int, codes []codepool.CodeID, epoch int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.nodes[node]; ok && !slices.Equal(prev, codes) {
		l.violations = append(l.violations,
			fmt.Sprintf("node %d acked twice with different codes: %v then %v", node, prev, codes))
		return
	}
	l.nodes[node] = append([]codepool.CodeID(nil), codes...)
	if epoch > l.maxEpoch {
		l.maxEpoch = epoch
	}
}

func (l *harnessLedger) ackRevoke(res authd.RevokeResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.revAcks++
	if res.RevokedNow {
		l.revokedNowAcks++
		if l.revokedNowAcks > 1 {
			l.violations = append(l.violations,
				fmt.Sprintf("code %d acknowledged RevokedNow %d times", l.revCode, l.revokedNowAcks))
		}
	}
}

func runCrashHarness(opts options, out io.Writer) (int, error) {
	cycles := opts.crashCycles
	if cycles < 1 {
		cycles = 1
	}

	// Phase 1: in-process matrix, more cycles than the tier1-bounded test.
	matrixDir, err := os.MkdirTemp("", "jrsnd-crash-matrix-*")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(matrixDir)
	fmt.Fprintf(out, "crash-harness: phase 1 — in-process matrix (%d points)\n", len(authd.CrashPoints))
	mp := serverConfig(opts).Params
	mp.N, mp.M, mp.L, mp.Gamma, mp.Q = harnessN, harnessM, harnessL, harnessGamma, 0
	reports, err := authd.RunCrashMatrix(authd.CrashConfig{
		Dir:         matrixDir,
		Params:      mp,
		Seed:        opts.seed,
		Cycles:      3 * cycles,
		OpsPerCycle: 64,
	})
	if err != nil {
		return 1, err
	}
	fmt.Fprint(out, authd.FormatCrashReports(reports))
	for _, r := range reports {
		if !r.Passed() {
			return 1, fmt.Errorf("in-process matrix: crash point %s violated invariants", r.Point)
		}
	}

	// Phase 2: subprocess kill-restart loop.
	exe, err := os.Executable()
	if err != nil {
		return 1, fmt.Errorf("locating own binary: %w", err)
	}
	work := opts.crashDir
	ephemeral := work == ""
	if ephemeral {
		if work, err = os.MkdirTemp("", "jrsnd-crash-proc-*"); err != nil {
			return 1, err
		}
	} else if err := os.MkdirAll(work, 0o755); err != nil {
		return 1, err
	}

	failed := false
	for _, pt := range authd.CrashPoints {
		fmt.Fprintf(out, "crash-harness: phase 2 — subprocess kill-restart at %s\n", pt)
		led := newLedger(3)
		dir := filepath.Join(work, "proc-"+string(pt))
		for cycle := 0; cycle < cycles; cycle++ {
			if err := runKillCycle(exe, dir, pt, cycle, opts.seed, led); err != nil {
				led.violate("cycle %d: %v", cycle, err)
				break
			}
		}
		// One last clean boot so mutations acked during the final cycle's
		// graceful pass are verified too.
		if len(led.violations) == 0 {
			if err := verifyCleanBoot(exe, dir, opts.seed, led); err != nil {
				led.violate("final verification: %v", err)
			}
		}
		if n := len(led.violations); n > 0 {
			failed = true
			fmt.Fprintf(out, "crash-harness: %s FAILED (%d violations)\n", pt, n)
			for _, v := range led.violations {
				fmt.Fprintf(out, "  violation: %s\n", v)
			}
		} else {
			fmt.Fprintf(out, "crash-harness: %s ok (%d acked nodes, %d revoke acks, epoch %d)\n",
				pt, len(led.nodes), led.revAcks, led.maxEpoch)
		}
	}
	if failed {
		return 1, errors.New("crash harness detected invariant violations")
	}
	if ephemeral {
		os.RemoveAll(work)
	}
	fmt.Fprintln(out, "crash-harness: all crash points survived kill-restart with invariants intact")
	return 0, nil
}

// runKillCycle runs one crash → recover → verify round: an armed child is
// driven until it dies at its crash point, then a clean child recovers the
// same directory, the ledger is checked against it, a few more tracked
// mutations are acked, and it is drained with SIGTERM.
func runKillCycle(exe, dir string, pt authd.CrashPoint, cycle int, seed int64, led *harnessLedger) error {
	// Append points fire per mutation; snapshot points fire once per
	// snapshot, so those children snapshot aggressively and crash on a
	// low hit count. Staggering by cycle moves the cut through the
	// workload (and across snapshot boundaries, since the directory's
	// mutation count carries over).
	crashAfter, snapEvery := 25+40*cycle, 64
	if pt == authd.CrashMidSnapshot || pt == authd.CrashMidTruncate {
		crashAfter, snapEvery = 1+cycle, 16
	}
	armed := []string{
		"-crash-point", string(pt),
		"-crash-after", strconv.Itoa(crashAfter),
	}
	ch, err := startChild(exe, dir, snapEvery, seed, armed)
	if err != nil {
		return fmt.Errorf("armed child: %w", err)
	}

	// Hammer it until it dies: background load (revoke weight 0 so the
	// tracked client owns all revocation accounting) plus tracked ops.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = authd.RunLoad(ctx, authd.LoadConfig{
			Target:       ch.URL(),
			Workers:      3,
			Requests:     200_000,
			MixProvision: 55,
			MixJoin:      45,
			MixRevoke:    0,
			Seed:         seed + int64(cycle),
			Timeout:      5 * time.Second,
		})
	}()
	go func() {
		defer wg.Done()
		trackedOps(ctx, ch.URL(), led, 0)
	}()

	state, werr := ch.Wait(90 * time.Second)
	cancel()
	wg.Wait()
	if werr != nil {
		return fmt.Errorf("armed child never died: %w (output:\n%s)", werr, ch.Output())
	}
	if state != crashExitCode {
		return fmt.Errorf("armed child exited %d, want %d (output:\n%s)", state, crashExitCode, ch.Output())
	}

	// Recover on a clean child and verify every acked mutation survived;
	// then ack a few more mutations and drain it gracefully, so the next
	// cycle also proves SIGTERM flushed the WAL.
	v, err := startChild(exe, dir, snapEvery, seed, nil)
	if err != nil {
		return fmt.Errorf("recovery child: %w", err)
	}
	verifyLedger(v.URL(), led)
	trackedOps(context.Background(), v.URL(), led, 6)
	if err := v.Terminate(); err != nil {
		return fmt.Errorf("graceful drain: %w (output:\n%s)", err, v.Output())
	}
	return nil
}

// verifyCleanBoot boots one more clean child and re-checks the ledger —
// covering mutations acked after the last cycle's verification.
func verifyCleanBoot(exe, dir string, seed int64, led *harnessLedger) error {
	v, err := startChild(exe, dir, 64, seed, nil)
	if err != nil {
		return err
	}
	verifyLedger(v.URL(), led)
	return v.Terminate()
}

// trackedOps drives acknowledged mutations into the ledger. With n == 0
// it runs until ctx is cancelled (racing a crash — errors are expected
// and simply not recorded); with n > 0 it performs exactly n acked ops
// against a healthy server and fails the ledger if any errors.
func trackedOps(ctx context.Context, url string, led *harnessLedger, n int) {
	cl := &authd.Client{Base: url, ClientID: "crash-harness", MaxAttempts: 1}
	for i := 0; n == 0 || i < n; i++ {
		if ctx.Err() != nil {
			return
		}
		opCtx, cancelOp := context.WithTimeout(ctx, 5*time.Second)
		err := trackedStep(opCtx, cl, led, i)
		cancelOp()
		if err != nil && !errors.Is(err, authd.ErrExhausted) {
			if n > 0 {
				led.violate("tracked op against healthy server failed: %v", err)
			}
			// Otherwise racing a crash: the child is dead or dying. Stop
			// hammering.
			return
		}
	}
}

// trackedStep performs tracked op i — provision, provision, join, revoke
// by i mod 4 — and records an acknowledged result in the ledger. Only
// fully received responses enter it.
func trackedStep(ctx context.Context, cl *authd.Client, led *harnessLedger, i int) error {
	switch i % 4 {
	case 0, 1:
		res, err := cl.Provision(ctx, 1, "tracked")
		if err != nil {
			return err
		}
		for _, a := range res.Nodes {
			led.ackAssign(a.Node, a.Codes, res.Epoch)
		}
		led.ackSeq(res.Seq)
	case 2:
		res, err := cl.Join(ctx, "tracked")
		if err != nil {
			return err
		}
		led.ackAssign(res.Node, res.Codes, res.Epoch)
		led.ackSeq(res.Seq)
	default:
		res, err := cl.Revoke(ctx, led.revCode)
		if err != nil {
			return err
		}
		led.ackRevoke(res)
		led.ackSeq(res.Seq)
	}
	return nil
}

// checkLedger is the read-only ledger check against one server: every
// acked node present with exactly its acked codes, epoch monotonic, and
// the acknowledged revocation still in force. Being read-only, it runs
// against followers too. It reports false if the server did not answer.
func checkLedger(url string, led *harnessLedger) bool {
	cl := &authd.Client{Base: url, ClientID: "ledger-verify"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	info, err := cl.Epoch(ctx)
	if err != nil {
		led.violate("%s: epoch probe: %v", url, err)
		return false
	}
	led.mu.Lock()
	maxEpoch := led.maxEpoch
	nodes := make(map[int][]codepool.CodeID, len(led.nodes))
	for n, c := range led.nodes {
		nodes[n] = c
	}
	revokedNow := led.revokedNowAcks
	led.mu.Unlock()
	if info.Epoch < maxEpoch {
		led.violate("%s: epoch went backwards: %d < acked %d", url, info.Epoch, maxEpoch)
	}
	for node, codes := range nodes {
		ni, err := cl.Node(ctx, node)
		if err != nil {
			led.violate("%s: acked node %d lost: %v", url, node, err)
			continue
		}
		if !slices.Equal(ni.Codes, codes) {
			led.violate("%s: node %d holds codes %v, acked %v", url, node, ni.Codes, codes)
		}
	}
	if revokedNow > 0 && info.Revoked < 1 {
		led.violate("%s: acknowledged revocation of code %d missing", url, led.revCode)
	}
	return true
}

// verifyLedger checks every recovery invariant against a freshly
// recovered server: the read-only checkLedger, then a mutating probe.
func verifyLedger(url string, led *harnessLedger) {
	if !checkLedger(url, led) {
		return
	}
	led.mu.Lock()
	revAcks := led.revAcks
	led.mu.Unlock()
	// Revocation durability + exactly-once: past γ acknowledged reports
	// the code must be revoked, and re-reporting a revoked code must not
	// claim RevokedNow again. The probe report is itself acked, so it
	// joins the ledger.
	if revAcks <= harnessGamma {
		return
	}
	cl := &authd.Client{Base: url, ClientID: "crash-verify"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := cl.Revoke(ctx, led.revCode)
	if err != nil {
		led.violate("revoke probe after recovery: %v", err)
		return
	}
	led.ackRevoke(res)
	if !res.Revoked {
		led.violate("code %d had %d acked reports (γ=%d) but recovered unrevoked",
			led.revCode, revAcks, harnessGamma)
	}
}

// startChild launches `exe` as a durable harness-sized server on an
// ephemeral port (unless extra overrides -addr) and returns it serving.
func startChild(exe, dir string, snapEvery int, seed int64, extra []string) (*subproc.Proc, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-data-dir", dir,
		"-n", strconv.Itoa(harnessN),
		"-m", strconv.Itoa(harnessM),
		"-l", strconv.Itoa(harnessL),
		"-gamma", strconv.Itoa(harnessGamma),
		"-seed", strconv.FormatInt(seed, 10),
		"-rate", "-1",
		"-snapshot-every", strconv.Itoa(snapEvery),
	}
	return subproc.Start(exe, append(args, extra...))
}
