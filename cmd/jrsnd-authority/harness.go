package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
// acknowledged responses enter an authd.Ledger, waits for the child to
// die, then boots a clean child on the same data directory and runs the
// ledger's Check against it over HTTP: every acked node still holds
// exactly its acked codes, the epoch never went back, and a code acked
// RevokedNow or reported more than γ times is revoked. The ledger itself
// flags a node acked twice and a second RevokedNow as they are recorded.
// Each verify child is stopped with SIGTERM, so graceful
// drain-flushes-WAL is exercised every cycle: mutations acked just before
// the SIGTERM must survive into the next cycle's recovery. Both phases
// print one authd.CrashReport per point.
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

// harnessRevokeCode is the one code the crash harness reports, and its
// background load runs with MixRevoke 0. So the revoked count GET
// /v1/epoch returns is exactly this code's revocation bit, which is how
// checkServer reads revocation over HTTP.
const harnessRevokeCode int32 = 3

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
		rep := authd.CrashReport{Point: pt, Cycles: cycles}
		led := authd.NewLedger(harnessGamma)
		dir := filepath.Join(work, "proc-"+string(pt))
		for cycle := 0; cycle < cycles; cycle++ {
			if err := runKillCycle(exe, dir, pt, cycle, opts.seed, led); err != nil {
				led.Violate("cycle %d: %v", cycle, err)
				break
			}
			rep.Crashes++
		}
		// One last clean boot so mutations acked during the final cycle's
		// graceful pass are verified too.
		if len(led.Violations()) == 0 {
			if err := verifyCleanBoot(exe, dir, opts.seed, led); err != nil {
				led.Violate("final verification: %v", err)
			}
		}
		rep.AckedOps, rep.Violations = led.AckedOps(), led.Violations()
		fmt.Fprint(out, authd.FormatCrashReports([]authd.CrashReport{rep}))
		failed = failed || !rep.Passed()
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
func runKillCycle(exe, dir string, pt authd.CrashPoint, cycle int, seed int64, led *authd.Ledger) error {
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
	verifyRecovery(v.URL(), led)
	trackedOps(context.Background(), v.URL(), led, 6)
	if err := v.Terminate(); err != nil {
		return fmt.Errorf("graceful drain: %w (output:\n%s)", err, v.Output())
	}
	return nil
}

// verifyCleanBoot boots one more clean child and re-checks the ledger —
// covering mutations acked after the last cycle's verification.
func verifyCleanBoot(exe, dir string, seed int64, led *authd.Ledger) error {
	v, err := startChild(exe, dir, 64, seed, nil)
	if err != nil {
		return err
	}
	verifyRecovery(v.URL(), led)
	return v.Terminate()
}

// trackedOps drives acknowledged mutations into the ledger. With n == 0
// it runs until ctx is cancelled (racing a crash — errors are expected
// and simply not recorded); with n > 0 it performs exactly n acked ops
// against a healthy server and fails the ledger if any errors.
func trackedOps(ctx context.Context, url string, led *authd.Ledger, n int) {
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
				led.Violate("tracked op against healthy server failed: %v", err)
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
func trackedStep(ctx context.Context, cl *authd.Client, led *authd.Ledger, i int) error {
	switch i % 4 {
	case 0, 1:
		res, err := cl.Provision(ctx, 1, "tracked")
		if err != nil {
			return err
		}
		led.Provision(res)
	case 2:
		res, err := cl.Join(ctx, "tracked")
		if err != nil {
			return err
		}
		led.Join(res)
	default:
		res, err := cl.Revoke(ctx, harnessRevokeCode)
		if err != nil {
			return err
		}
		led.Revoke(res)
	}
	return nil
}

// checkServer runs the ledger's read-only Check against the authority at
// url over HTTP. It reports false if the server did not answer.
func checkServer(url string, led *authd.Ledger) bool {
	cl := &authd.Client{Base: url, ClientID: "ledger-verify"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := cl.Epoch(ctx)
	if err != nil {
		led.Violate("%s: epoch probe: %v", url, err)
		return false
	}
	led.Check(authd.View{
		Prefix: url + ": ",
		Epoch:  info.Epoch,
		Node: func(node int) ([]codepool.CodeID, error) {
			ni, err := cl.Node(ctx, node)
			return ni.Codes, err
		},
		Revoked: func(int32) bool { return info.Revoked > 0 }, // see harnessRevokeCode
	})
	return true
}

// verifyRecovery checks a freshly recovered server: checkServer, then,
// once the code is past γ, one more tracked report, which the ledger
// flags if it claims RevokedNow a second time.
func verifyRecovery(url string, led *authd.Ledger) {
	if !checkServer(url, led) || led.Reports(harnessRevokeCode) <= harnessGamma {
		return
	}
	cl := &authd.Client{Base: url, ClientID: "crash-verify"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := trackedStep(ctx, cl, led, 3); err != nil { // tracked op 3 is a revoke
		led.Violate("revoke probe after recovery: %v", err)
	}
}

// startChild launches `exe` as a durable harness-sized server on an
// ephemeral port, with extra flags appended, and returns it serving.
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
