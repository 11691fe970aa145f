// Command jrsnd-authority runs the networked code-provisioning authority
// of §V-A/§V-D (internal/authd): an HTTP service that hands out
// pre-distributed spread-code sets, admits late joiners (running further
// distribution rounds when the pre-provisioned slots run out), and
// processes invalid-code reports through the γ-threshold revocation
// table. With -loadgen it instead drives a mixed provision/join/revoke
// workload — against -target, or against a private in-process server on
// a loopback ephemeral port — and prints throughput and p50/p99 latency.
//
// With -data-dir the authority is durable: every mutation is written to a
// write-ahead log and fsynced (concurrent mutations share one fsync)
// before the response acknowledges it, periodic snapshots bound replay
// time, and a restart recovers the exact acknowledged state. The
// crash-fault flags exist for the harness: -crash-point kills the
// process (exit 137) at a named durability step, and -crash-harness runs
// the full kill-restart matrix against a real subprocess under load.
//
//	jrsnd-authority -addr 127.0.0.1:7946 -n 2000 -m 100 -l 40
//	jrsnd-authority -addr 127.0.0.1:7946 -data-dir /var/lib/jrsnd
//	jrsnd-authority -loadgen -requests 5000 -workers 8
//	jrsnd-authority -loadgen -target http://127.0.0.1:7946 -mix 50,25,25
//	jrsnd-authority -crash-harness -crash-cycles 2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/authd"
)

type options struct {
	addr  string
	n     int
	m     int
	l     int
	gamma int
	seed  int64

	rate  float64
	burst int
	pprof bool

	dataDir   string
	snapEvery int

	crashPoint   string
	crashAfter   int
	crashHarness bool
	crashCycles  int
	crashDir     string

	loadgen  bool
	target   string
	workers  int
	requests int
	mix      string
	batch    int
	jsonOut  string
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", "127.0.0.1:7946", "listen address (server mode)")
	flag.IntVar(&opts.n, "n", 512, "deployment slots n")
	flag.IntVar(&opts.m, "m", 16, "codes per node m")
	flag.IntVar(&opts.l, "l", 8, "nodes sharing each code l")
	flag.IntVar(&opts.gamma, "gamma", 5, "revocation threshold γ")
	flag.Int64Var(&opts.seed, "seed", 1, "pool seed")
	flag.Float64Var(&opts.rate, "rate", 0, "per-client req/s (0 = default 64, negative = unlimited)")
	flag.IntVar(&opts.burst, "burst", 0, "per-client burst (0 = default)")
	flag.BoolVar(&opts.pprof, "pprof", false, "mount /debug/pprof/ and fold Go runtime gauges into /metrics")
	flag.StringVar(&opts.dataDir, "data-dir", "", "durable data directory (WAL + snapshots); empty = in-memory")
	flag.IntVar(&opts.snapEvery, "snapshot-every", 0, "snapshot+truncate after this many mutations (0 = default 4096, negative = off)")
	flag.StringVar(&opts.crashPoint, "crash-point", "", "crash-fault injection: os.Exit(137) at this WAL/snapshot point (requires -data-dir)")
	flag.IntVar(&opts.crashAfter, "crash-after", 1, "crash at the Nth hit of -crash-point")
	flag.BoolVar(&opts.crashHarness, "crash-harness", false, "run the crash-fault harness: in-process matrix + subprocess kill-restart loop")
	flag.IntVar(&opts.crashCycles, "crash-cycles", 2, "crash harness: kill-restart cycles per crash point")
	flag.StringVar(&opts.crashDir, "crash-dir", "", "crash harness: working directory (empty = a temp dir, removed on success)")
	flag.BoolVar(&opts.loadgen, "loadgen", false, "run the load generator instead of serving")
	flag.StringVar(&opts.target, "target", "", "loadgen target URL (empty = boot an in-process server)")
	flag.IntVar(&opts.workers, "workers", 8, "loadgen concurrent workers")
	flag.IntVar(&opts.requests, "requests", 2000, "loadgen total operations")
	flag.StringVar(&opts.mix, "mix", "70,10,20", "loadgen provision,join,revoke weights")
	flag.IntVar(&opts.batch, "batch", 1, "loadgen slots per provision request")
	flag.StringVar(&opts.jsonOut, "json", "", "loadgen: also write the report as JSON to this file")
	flag.Parse()

	code, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jrsnd-authority:", err)
	}
	os.Exit(code)
}

// run executes one mode and returns the process exit code. Exit 2 marks
// bad flag combinations, matching the jrsnd-sim convention.
func run(opts options, out io.Writer) (int, error) {
	if opts.crashHarness {
		if opts.loadgen || opts.crashPoint != "" {
			return 2, fmt.Errorf("-crash-harness excludes -loadgen and -crash-point")
		}
		return runCrashHarness(opts, out)
	}
	if opts.crashPoint != "" {
		if opts.dataDir == "" {
			return 2, fmt.Errorf("-crash-point requires -data-dir")
		}
		if !validCrashPoint(opts.crashPoint) {
			return 2, fmt.Errorf("unknown crash point %q (valid: %v)", opts.crashPoint, authd.CrashPoints)
		}
	}
	if opts.loadgen {
		if opts.dataDir != "" {
			return 2, fmt.Errorf("-data-dir is a server-mode flag; point -loadgen at a durable server with -target")
		}
		return runLoadgen(opts, out)
	}
	if opts.target != "" {
		return 2, fmt.Errorf("-target requires -loadgen")
	}
	return runServer(opts, out)
}

func validCrashPoint(name string) bool {
	for _, p := range authd.CrashPoints {
		if string(p) == name {
			return true
		}
	}
	return false
}

func serverConfig(opts options) authd.Config {
	p := analysis.Defaults()
	p.N, p.M, p.L, p.Gamma = opts.n, opts.m, opts.l, opts.gamma
	return authd.Config{
		Params:          p,
		Seed:            opts.seed,
		Rate:            opts.rate,
		Burst:           opts.burst,
		EnableProfiling: opts.pprof,
		Durable: authd.Durability{
			Dir:           opts.dataDir,
			SnapshotEvery: opts.snapEvery,
		},
	}
}

func runServer(opts options, out io.Writer) (int, error) {
	cfg := serverConfig(opts)
	if opts.crashPoint != "" {
		// Armed crash: die with the conventional SIGKILL code at the Nth
		// hit, simulating a power cut at exactly that durability step.
		target := authd.CrashPoint(opts.crashPoint)
		after := int64(opts.crashAfter)
		if after < 1 {
			after = 1
		}
		var hits atomic.Int64
		cfg.Durable.CrashHook = func(p authd.CrashPoint) {
			if p == target && hits.Add(1) == after {
				os.Exit(crashExitCode)
			}
		}
	}
	srv, err := authd.New(cfg)
	if err != nil {
		return 1, err
	}
	// Catch SIGTERM before the server is reachable: a supervisor that
	// reads the "serving on" line may signal at once, and an uncaught
	// SIGTERM kills the process without the drain.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	addr, err := srv.Start(opts.addr)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "jrsnd-authority: serving on http://%s (n=%d m=%d l=%d γ=%d)\n",
		addr, opts.n, opts.m, opts.l, opts.gamma)

	<-stop
	fmt.Fprintln(out, "jrsnd-authority: draining…")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return 1, fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(out, "jrsnd-authority: stopped")
	return 0, nil
}

func parseMix(mix string) (p, j, r int, err error) {
	parts := strings.Split(mix, ",")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("mix %q must be three comma-separated weights", mix)
	}
	vals := make([]int, 3)
	for i, part := range parts {
		vals[i], err = strconv.Atoi(strings.TrimSpace(part))
		if err != nil || vals[i] < 0 {
			return 0, 0, 0, fmt.Errorf("mix %q: bad weight %q", mix, part)
		}
	}
	if vals[0]+vals[1]+vals[2] == 0 {
		return 0, 0, 0, fmt.Errorf("mix %q sums to zero", mix)
	}
	return vals[0], vals[1], vals[2], nil
}

func runLoadgen(opts options, out io.Writer) (int, error) {
	mp, mj, mr, err := parseMix(opts.mix)
	if err != nil {
		return 2, err
	}

	target := opts.target
	if target == "" {
		// Self-contained mode: boot a private server on a loopback
		// ephemeral port and drive it. Rate limiting is disabled — the
		// point is to measure the service, not the limiter.
		cfg := serverConfig(opts)
		cfg.Rate = -1
		srv, err := authd.New(cfg)
		if err != nil {
			return 1, err
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return 1, err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		target = "http://" + addr
		fmt.Fprintf(out, "loadgen: booted in-process server on %s\n", target)
	}

	report, err := authd.RunLoad(context.Background(), authd.LoadConfig{
		Target:       target,
		Workers:      opts.workers,
		Requests:     opts.requests,
		MixProvision: mp,
		MixJoin:      mj,
		MixRevoke:    mr,
		Batch:        opts.batch,
		Seed:         opts.seed,
	})
	if err != nil {
		return 1, err
	}
	fmt.Fprint(out, report.Format())
	if opts.jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(opts.jsonOut, append(data, '\n'), 0o644); err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "loadgen: report written to %s\n", opts.jsonOut)
	}
	if report.Errors > 0 {
		return 1, fmt.Errorf("%d operations failed", report.Errors)
	}
	return 0, nil
}
