package authd

// Follower manages one follower replica: it owns the follower-role Server,
// runs the replication pull loop against the current primary, bootstraps
// (and re-bootstraps) from snapshot transfers, and implements the
// promotion and pause hooks the HTTP surface exposes.
//
// The loop is deliberately dumb: fetch records after the local sequence,
// apply each through the recovery path (applyReplicated), repeat. All the
// hard cases are signaled by the primary through the fetch status —
// "you're too far behind, take a snapshot" and "your history is not my
// history, wipe and re-bootstrap" — and by the fingerprint check inside
// applyReplicated, which is the one case that is NOT self-healing: a
// record the primary acknowledged producing different state here means
// the deterministic state machine is not deterministic, and the follower
// stops loudly (Fatal) rather than papering over it with a re-bootstrap.
//
// Re-bootstrap replaces the whole Server: the handler the HTTP listener
// sees is an atomic indirection, swapped to a 503 responder while the old
// server drains, the data directory is reset to the fetched snapshot, and
// a fresh Server boots from it — the same code path crash recovery uses.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// FollowerConfig configures StartFollower.
type FollowerConfig struct {
	// Server is the base configuration for the managed replica. Follower
	// is forced true; Durable.Dir is required; Metrics is defaulted to a
	// fresh registry so instruments survive re-bootstraps.
	Server Config
	// Primaries are the candidate upstream base URLs (every replica in the
	// group, typically). The loop follows whichever reports the primary
	// role; on repeated fetch failures it re-probes the list.
	Primaries []string
	// ID is this follower's stable identity for the primary's
	// acknowledgment watermarks. Required.
	ID string
	// PollInterval paces the loop after an error or an empty poll;
	// 0 means 25 ms.
	PollInterval time.Duration
	// WaitMS is the server-side long-poll window per fetch; 0 means 400.
	WaitMS int
	// Logf receives diagnostic lines; nil discards them.
	Logf func(format string, args ...any)
}

// followerBatchMax is the record cap a follower asks for per fetch, well
// under the primary's replMaxBatch.
const followerBatchMax = 512

// Follower is the running manager. Obtain with StartFollower.
type Follower struct {
	cfg FollowerConfig

	srvMu sync.Mutex
	srv   *Server

	handler atomic.Value // handlerBox: the live server's mux or a 503 responder
	httpSrv *http.Server

	paused  atomic.Bool
	stopped atomic.Bool
	stopCh  chan struct{}
	done    chan struct{}

	primMu  sync.Mutex
	primary string

	fatalCh chan error
}

// StartFollower builds the follower server (bootstrapping from whatever
// the data directory holds) and starts the pull loop. The returned
// Follower is not yet listening; call Start.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("authd: follower requires an ID")
	}
	if len(cfg.Primaries) == 0 {
		return nil, fmt.Errorf("authd: follower requires at least one primary candidate")
	}
	cfg.Server.Follower = true
	if cfg.Server.Metrics == nil {
		// Pinned here (not left to New's per-call default) so the same
		// instruments survive re-bootstrap's server replacement.
		cfg.Server.Metrics = metrics.New()
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 25 * time.Millisecond
	}
	if cfg.WaitMS <= 0 {
		cfg.WaitMS = 400
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	f := &Follower{
		cfg:     cfg,
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
		fatalCh: make(chan error, 1),
		primary: cfg.Primaries[0],
	}
	srv, err := New(cfg.Server)
	if err != nil {
		return nil, err
	}
	f.installServer(srv)
	go f.loop()
	return f, nil
}

// Start listens on addr and serves the managed replica. The handler
// indirection is what lets re-bootstrap swap servers under a live
// listener.
func (f *Follower) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("authd: follower listen: %w", err)
	}
	f.httpSrv = &http.Server{
		Handler:           http.HandlerFunc(f.serveHTTP),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { _ = f.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// handlerBox keeps atomic.Value's concrete type constant across stores of
// different handler implementations (mux vs 503 responder).
type handlerBox struct{ h http.Handler }

func (f *Follower) serveHTTP(w http.ResponseWriter, r *http.Request) {
	f.handler.Load().(handlerBox).h.ServeHTTP(w, r)
}

// Server returns the currently live replica server (it changes across
// re-bootstraps).
func (f *Follower) Server() *Server {
	f.srvMu.Lock()
	defer f.srvMu.Unlock()
	return f.srv
}

// Fatal delivers the error that stopped the loop permanently — today only
// a fingerprint divergence at apply time, the one fault re-bootstrap must
// not hide.
func (f *Follower) Fatal() <-chan error { return f.fatalCh }

// Primary reports the upstream the loop is currently following.
func (f *Follower) Primary() string {
	f.primMu.Lock()
	defer f.primMu.Unlock()
	return f.primary
}

// Close stops the loop, the listener, and the managed server.
func (f *Follower) Close(ctx context.Context) error {
	f.stopLoop()
	var err error
	if f.httpSrv != nil {
		err = f.httpSrv.Shutdown(ctx)
	}
	if serr := f.Server().Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// installServer wires the hooks and publishes the server to the listener.
func (f *Follower) installServer(srv *Server) {
	srv.promoteHook = f.stopLoop
	srv.pauseHook = f.setPaused
	f.setPrimaryOn(srv)
	f.srvMu.Lock()
	f.srv = srv
	f.srvMu.Unlock()
	f.handler.Store(handlerBox{h: srv.Handler()})
}

// stopLoop halts the pull loop and waits for it to exit; the promotion
// hook, so a promoted server can never apply another replicated record.
// Idempotent.
func (f *Follower) stopLoop() {
	if f.stopped.CompareAndSwap(false, true) {
		close(f.stopCh)
	}
	<-f.done
}

func (f *Follower) setPaused(p bool) { f.paused.Store(p) }

func (f *Follower) setPrimary(url string) {
	f.primMu.Lock()
	f.primary = url
	f.primMu.Unlock()
	f.setPrimaryOn(f.Server())
}

func (f *Follower) setPrimaryOn(srv *Server) {
	srv.setPrimaryHint(f.Primary())
}

// sleep waits d or until the loop is stopped; reports whether to continue.
func (f *Follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d) //jrsnd:allow wallclock paces the live replication pull loop between fetches; never runs under the simulator
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-f.stopCh:
		return false
	}
}

// loop is the pull loop: fetch after the local sequence, apply, repeat.
func (f *Follower) loop() {
	defer close(f.done)
	transportFails := 0
	for {
		select {
		case <-f.stopCh:
			return
		default:
		}
		if f.paused.Load() {
			if !f.sleep(f.cfg.PollInterval) {
				return
			}
			continue
		}
		srv := f.Server()
		after := srv.repl.lastSeq()
		fp := srv.repl.chainFP()
		batch, err := f.fetch(f.Primary(), after, fp)
		if err != nil {
			transportFails++
			if transportFails >= 3 {
				// The primary may be dead or demoted: re-probe the
				// candidate list for whoever serves the primary role now.
				if p := f.findPrimary(); p != "" && p != f.Primary() {
					f.cfg.Logf("follower %s: switching primary to %s", f.cfg.ID, p)
					f.setPrimary(p)
					transportFails = 0
				}
			}
			if !f.sleep(f.cfg.PollInterval) {
				return
			}
			continue
		}
		transportFails = 0

		switch batch.status {
		case replOK:
			fatal := false
			for _, e := range batch.entries {
				if err := srv.applyReplicated(e.frame, e.fp); err != nil {
					if errors.Is(err, ErrReplicaDiverged) {
						// NOT self-healing: the deterministic state machine
						// produced different state from the same record. The
						// server is poisoned; stop loudly.
						f.cfg.Logf("follower %s: FATAL divergence: %v", f.cfg.ID, err)
						select {
						case f.fatalCh <- err:
						default:
						}
						fatal = true
						break
					}
					f.cfg.Logf("follower %s: apply: %v", f.cfg.ID, err)
					break
				}
				srv.noteMutation()
			}
			if fatal {
				return
			}
			lag := int64(batch.lastSeq) - int64(srv.repl.lastSeq())
			if lag < 0 {
				lag = 0
			}
			srv.replLag.Store(lag)
			srv.m.replLagRecords.Set(float64(lag))
			if len(batch.entries) == 0 {
				// The server-side long poll already waited; yield briefly so
				// a dead-idle pair doesn't spin.
				if !f.sleep(time.Millisecond) {
					return
				}
			}
		case replSnapshotNeeded, replDivergent:
			// Lagging past the primary's buffered window, or holding a
			// history the primary never produced (a stale tail from a dead
			// primary, rejoining after failover). Both re-bootstrap from the
			// primary's snapshot — safe, because the promotion gate
			// guarantees every acknowledged record is in the new primary's
			// history.
			if batch.status == replDivergent {
				f.cfg.Logf("follower %s: primary reports divergence at seq %d; re-bootstrapping", f.cfg.ID, after)
			}
			if err := f.rebootstrap(); err != nil {
				f.cfg.Logf("follower %s: re-bootstrap: %v", f.cfg.ID, err)
				if !f.sleep(f.cfg.PollInterval) {
					return
				}
			}
		}
	}
}

// fetch issues one replication poll against base.
func (f *Follower) fetch(base string, after, fp uint64) (replBatch, error) {
	url := fmt.Sprintf("%s/v1/replicate?after=%d&fp=%016x&max=%d&wait_ms=%d",
		base, after, fp, followerBatchMax, f.cfg.WaitMS)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return replBatch{}, err
	}
	req.Header.Set("X-JRSND-Follower", f.cfg.ID)
	resp, err := sharedHTTPClient.Do(req)
	if err != nil {
		return replBatch{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, replMaxResp+1))
	if err != nil {
		return replBatch{}, err
	}
	if len(body) > replMaxResp {
		return replBatch{}, fmt.Errorf("authd: replication response exceeds %d bytes", replMaxResp)
	}
	if resp.StatusCode != http.StatusOK {
		return replBatch{}, fmt.Errorf("authd: replicate fetch: %s", resp.Status)
	}
	return decodeReplResponse(body)
}

// findPrimary probes every candidate for the primary role.
func (f *Follower) findPrimary() string {
	for _, cand := range f.cfg.Primaries {
		st, err := FetchReplicationStatus(cand)
		if err == nil && st.Role == "primary" {
			return cand
		}
	}
	return ""
}

// FetchReplicationStatus probes GET /v1/replication on base — the probe
// followers and harnesses use to locate the primary.
func FetchReplicationStatus(base string) (ReplicationStatus, error) {
	var st ReplicationStatus
	resp, err := sharedHTTPClient.Get(base + "/v1/replication")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("authd: replication status: %s", resp.Status)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("authd: replication status: %w", err)
	}
	return st, nil
}

// rebootstrap resets this replica to the primary's snapshot: drain the old
// server behind a 503 responder, replace the data directory's state with
// the fetched image, and boot a fresh server from it.
func (f *Follower) rebootstrap() error {
	data, err := f.fetchSnapshot(f.Primary())
	if err != nil {
		return err
	}
	st, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("authd: fetched snapshot: %w", err)
	}
	p := f.cfg.Server.Params
	if st.N != p.N || st.M != p.M || st.L != p.L || st.Gamma != p.Gamma || st.Seed != f.cfg.Server.Seed {
		return fmt.Errorf("authd: fetched snapshot identity (n=%d m=%d l=%d γ=%d seed=%d) does not match this replica",
			st.N, st.M, st.L, st.Gamma, st.Seed)
	}

	f.handler.Store(handlerBox{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"authd: replica re-bootstrapping"}`, http.StatusServiceUnavailable)
	})})
	old := f.Server()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := old.Shutdown(ctx); err != nil {
		f.cfg.Logf("follower %s: drain before re-bootstrap: %v", f.cfg.ID, err)
	}

	dir := f.cfg.Server.Durable.Dir
	if err := os.Remove(filepath.Join(dir, walFileName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("authd: reset wal: %w", err)
	}
	tmp := filepath.Join(dir, snapTmpName)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("authd: write fetched snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapFileName)); err != nil {
		return fmt.Errorf("authd: install fetched snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}

	srv, err := New(f.cfg.Server)
	if err != nil {
		return fmt.Errorf("authd: re-bootstrap boot: %w", err)
	}
	if got := srv.repl.lastSeq(); got != st.Seq {
		return fmt.Errorf("authd: re-bootstrapped replica at seq %d, snapshot covers %d", got, st.Seq)
	}
	f.installServer(srv)
	srv.m.catchupSnapshots.Inc()
	f.cfg.Logf("follower %s: re-bootstrapped from snapshot at seq %d", f.cfg.ID, st.Seq)
	return nil
}

// fetchSnapshot pulls the primary's snapshot image.
func (f *Follower) fetchSnapshot(base string) ([]byte, error) {
	resp, err := sharedHTTPClient.Get(base + "/v1/replicate/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Magic + length + CRC + payload, bounded by the decoder's own cap.
	data, err := io.ReadAll(io.LimitReader(resp.Body, snapMaxPayload+64))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("authd: snapshot fetch: %s", resp.Status)
	}
	return data, nil
}
