package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/authd"
	"repro/internal/subproc"
)

// Multi-process end-to-end harness (`jrsnd-node -e2e`, `make node-e2e`).
//
// Boots a real jrsnd-authority subprocess, provisions -e2e-nodes slots,
// and starts one jrsnd-node subprocess per slot on loopback, each
// configured with every other node's UDP address. Then:
//
//  1. waits until every daemon reports full mutual discovery — every
//     peer authenticated AND a decoded HELLO frame from each;
//  2. SIGKILLs one daemon and waits for the survivors to reap it from
//     their peer tables (keepalive probes going unanswered);
//  3. restarts the daemon on the same slot and the same UDP address and
//     waits for full re-discovery;
//  4. requires zero invariant violations on every daemon, then SIGTERMs
//     everything and requires clean exits.
//
// Any violation, timeout, or unclean exit → exit 1.

// e2e pool sizing: small but larger than the node count.
const (
	e2eN     = 64
	e2eM     = 8
	e2eL     = 4
	e2eGamma = 3
)

const e2eDiscoveryTimeout = 60 * time.Second

func runE2E(opts options, out io.Writer) (int, error) {
	dir := opts.e2eDir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "jrsnd-node-e2e-*"); err != nil {
			return 1, err
		}
		defer func() { _ = os.RemoveAll(dir) }()
	}
	if err := e2eRun(opts, dir, out); err != nil {
		return 1, err
	}
	fmt.Fprintln(out, "node-e2e: PASS")
	return 0, nil
}

func e2eRun(opts options, dir string, out io.Writer) error {
	selfExe, err := os.Executable()
	if err != nil {
		return err
	}
	n := opts.e2eNodes

	// Authority first: the daemons cannot even derive their keys without it.
	auth, err := subproc.Start(opts.e2eAuthority, []string{
		"-addr", "127.0.0.1:0",
		"-n", strconv.Itoa(e2eN),
		"-m", strconv.Itoa(e2eM),
		"-l", strconv.Itoa(e2eL),
		"-gamma", strconv.Itoa(e2eGamma),
		"-rate", "-1",
	})
	if err != nil {
		return fmt.Errorf("starting the authority: %w", err)
	}
	defer auth.Kill()
	fmt.Fprintf(out, "node-e2e: authority on %s\n", auth.URL())

	// Provision the slots the daemons will claim (slot IDs 0..n-1).
	if _, err := (&authd.Client{Base: auth.URL()}).Provision(context.Background(), n, "node-e2e"); err != nil {
		return fmt.Errorf("provisioning: %w", err)
	}
	fmt.Fprintf(out, "node-e2e: provisioned %d slots\n", n)

	// One loopback UDP port per node: every daemon must know every peer's
	// address before any of them starts.
	addrs, err := subproc.ReserveAddrs("udp", n)
	if err != nil {
		return err
	}

	nodeArgs := func(id int) []string {
		others := make([]string, 0, n-1)
		for i, a := range addrs {
			if i != id {
				others = append(others, a)
			}
		}
		return []string{
			"-authority", auth.URL(),
			"-node-id", strconv.Itoa(id),
			"-addr", addrs[id],
			"-peers", strings.Join(others, ","),
			"-http", "127.0.0.1:0",
			"-beacon", "100ms",
			"-idle-after", "2s",
			"-ping-every", "500ms",
			"-trace", filepath.Join(dir, fmt.Sprintf("node-%d.trace.jsonl", id)),
		}
	}

	nodes := make([]*subproc.Proc, n)
	defer func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Kill()
			}
		}
	}()
	for id := 0; id < n; id++ {
		if nodes[id], err = subproc.Start(selfExe, nodeArgs(id)); err != nil {
			return fmt.Errorf("starting node %d: %w", id, err)
		}
	}
	fmt.Fprintf(out, "node-e2e: %d daemons up\n", n)

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	want := func(self int) []int {
		w := make([]int, 0, n-1)
		for _, id := range all {
			if id != self {
				w = append(w, id)
			}
		}
		return w
	}

	// Phase 1: full mutual discovery.
	for id, nd := range nodes {
		if err := pollStatus(nd.URL(), e2eDiscoveryTimeout, func(s status) bool {
			return slices.Equal(s.Discovered, want(id)) && slices.Equal(s.Peers, want(id))
		}); err != nil {
			return fmt.Errorf("node %d never reached full discovery: %w\n%s", id, err, nd.Output())
		}
	}
	if err := checkViolations(nodes); err != nil {
		return err
	}
	fmt.Fprintf(out, "node-e2e: full mutual discovery across %d nodes\n", n)

	// Phase 2: SIGKILL one daemon; the survivors must reap it.
	victim := 1
	nodes[victim].Kill()
	fmt.Fprintf(out, "node-e2e: killed node %d\n", victim)
	for id, nd := range nodes {
		if id == victim {
			continue
		}
		if err := pollStatus(nd.URL(), e2eDiscoveryTimeout, func(s status) bool {
			return !slices.Contains(s.Peers, victim)
		}); err != nil {
			return fmt.Errorf("node %d never reaped the killed peer: %w\n%s", id, err, nd.Output())
		}
	}
	fmt.Fprintf(out, "node-e2e: survivors reaped node %d\n", victim)

	// Phase 3: restart on the same slot and address; full re-discovery.
	if nodes[victim], err = subproc.Start(selfExe, nodeArgs(victim)); err != nil {
		return fmt.Errorf("restarting node %d: %w", victim, err)
	}
	if err := pollStatus(nodes[victim].URL(), e2eDiscoveryTimeout, func(s status) bool {
		return slices.Equal(s.Discovered, want(victim)) && slices.Equal(s.Peers, want(victim))
	}); err != nil {
		return fmt.Errorf("restarted node %d never re-discovered: %w\n%s", victim, err, nodes[victim].Output())
	}
	for id, nd := range nodes {
		if id == victim {
			continue
		}
		if err := pollStatus(nd.URL(), e2eDiscoveryTimeout, func(s status) bool {
			return slices.Contains(s.Peers, victim)
		}); err != nil {
			return fmt.Errorf("node %d never re-admitted the restarted peer: %w\n%s", id, err, nd.Output())
		}
	}
	if err := checkViolations(nodes); err != nil {
		return err
	}
	fmt.Fprintf(out, "node-e2e: node %d restarted and re-discovered\n", victim)

	// Phase 4: graceful shutdown all around.
	for id, nd := range nodes {
		if err := nd.Terminate(); err != nil {
			return fmt.Errorf("node %d unclean shutdown: %w\n%s", id, err, nd.Output())
		}
		nodes[id] = nil
	}
	if err := auth.Terminate(); err != nil {
		return fmt.Errorf("authority unclean shutdown: %w\n%s", err, auth.Output())
	}
	return nil
}

// pollStatus polls a daemon's /status until cond holds.
func pollStatus(base string, timeout time.Duration, cond func(status) bool) error {
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		s, err := fetchStatus(base)
		if err != nil {
			last = err.Error()
		} else {
			if cond(s) {
				return nil
			}
			b, _ := json.Marshal(s)
			last = string(b)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("condition not reached in %v (last status: %s)", timeout, last)
}

func fetchStatus(base string) (status, error) {
	resp, err := http.Get(base + "/status")
	if err != nil {
		return status{}, err
	}
	defer resp.Body.Close()
	var s status
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return status{}, err
	}
	return s, nil
}

// checkViolations fails if any live daemon has recorded an invariant
// violation.
func checkViolations(nodes []*subproc.Proc) error {
	for id, nd := range nodes {
		if nd == nil {
			continue
		}
		s, err := fetchStatus(nd.URL())
		if err != nil {
			return fmt.Errorf("node %d status: %w", id, err)
		}
		if len(s.Violations) != 0 {
			return fmt.Errorf("node %d reported invariant violations: %v", id, s.Violations)
		}
	}
	return nil
}
