// Package authd is the networked code-provisioning authority of the
// paper's system model (§V-A, §V-D) grown into a production-shaped
// service. The single MANET authority that used to live only as
// in-process library code (internal/codepool + internal/ibc) here serves
// its three duties over HTTP:
//
//   - POST /v1/provision — deployment-time code assignment: hand out the
//     pre-distributed code sets of the next unclaimed deployment slots.
//   - POST /v1/join — late join per §V-A: admit a new node from the
//     pre-provisioned virtual-node slots, running further distribution
//     rounds (a batch expansion, which advances the epoch) when those are
//     exhausted.
//   - POST /v1/revoke — invalid-code reports routed through
//     codepool.Revoker, preserving its exactly-one-revocation guarantee.
//
// plus GET /v1/epoch (distribution-epoch counter and slot accounting),
// GET /v1/node (assignment lookup), GET /healthz, and
// GET /metrics (Prometheus text via internal/metrics).
//
// Concurrency is sized to the traffic the service is measured under,
// where the WAL fsync dominates: assignment records and per-client
// rate-limit buckets each live in one map behind one mutex; the codepool
// sits behind a single RWMutex because §V-A joins mutate the shared
// pool, while the deployment-slot cursor is a lock-free atomic. Request decoding is
// strictly bounded in the style of internal/wire — size caps derived
// from analysis.Params, a typed error taxonomy, no allocation driven by
// hostile lengths — and every handler increments a registered metrics
// counter. Shutdown is graceful: the listener closes, in-flight requests
// drain, and a deadline bounds the wait.
package authd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/codepool"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Service-level error taxonomy, on top of the decode taxonomy in codec.go.
var (
	// ErrExhausted: every deployment slot has been provisioned; late
	// arrivals must use /v1/join.
	ErrExhausted = errors.New("authd: deployment slots exhausted")
	// ErrRateLimited: the per-client token bucket refused the request.
	ErrRateLimited = errors.New("authd: rate limited")
	// ErrNotFound: the requested node has no assignment record.
	ErrNotFound = errors.New("authd: unknown node")

	// errDraining: Shutdown has begun, so the request was not admitted.
	errDraining = errors.New("authd: server shutting down")
)

// Config configures a Server. Params and Seed are required; everything
// else has a production default.
type Config struct {
	// Params sizes the code pool (N deployment slots, M codes per node,
	// L sharers, Gamma revocation threshold) and derives the request
	// decode caps.
	Params analysis.Params
	// Seed drives the deterministic pool construction and the join-time
	// batch expansions.
	Seed int64
	// Rate and Burst configure the per-client token bucket (requests per
	// second of sustained rate, bucket depth). Rate 0 selects the
	// default (64 req/s, burst 128); a negative Rate disables limiting.
	Rate  float64
	Burst int
	// Metrics receives the service instruments; nil creates a private
	// registry (GET /metrics always works).
	Metrics *metrics.Registry
	// Trace, when set, receives one span per handled request
	// ("authd.<route>", timestamped in seconds since server start), so the
	// service's request handling joins the same causal-span model the
	// protocol engine uses.
	Trace trace.Sink
	// EnableProfiling mounts net/http/pprof under /debug/pprof/ and folds
	// Go runtime gauges (goroutines, heap, GC pauses) into /metrics at
	// scrape time. Off by default: profiling endpoints are diagnostic
	// surface and ReadMemStats stops the world.
	EnableProfiling bool
	// Durable enables the write-ahead log + snapshot layer (wal.go,
	// snapshot.go, recover.go): every mutation is logged before it is
	// acknowledged and New replays the directory's history on boot. The
	// zero value keeps the server fully in-memory.
	Durable Durability

	// now is the wall clock, injectable for rate-limiter tests.
	now func() time.Time
}

// Server is the authority service. Create with New, attach to a listener
// with Start (or mount Handler yourself), stop with Shutdown.
type Server struct {
	cfg Config
	lim Limits

	// poolMu guards pool: provision reads code sets under RLock; joins
	// (which mutate the shared pool and may run a batch expansion) take
	// the write lock together with joinRng.
	poolMu  sync.RWMutex
	pool    *codepool.Pool
	joinRng *rand.Rand

	rev *codepool.Revoker

	reg *registry // node-ID → assignment records
	rl  *limiter  // per-client token buckets

	// nextSlot is the deployment-slot cursor, in [0, N]: a
	// compare-and-swap claim (claimSlots), so two concurrent provisions
	// can never hand out overlapping slot ranges.
	nextSlot atomic.Int64

	m      *serverMetrics
	mux    *http.ServeMux
	tracer *trace.Tracer             // nil when cfg.Trace is nil
	rc     *metrics.RuntimeCollector // nil unless cfg.EnableProfiling
	start  time.Time                 // span-timestamp epoch

	// Durability (nil/zero when Config.Durable.Dir is empty). Lock order
	// is poolMu before wal.mu: every mutator appends while holding at
	// least poolMu's read side, so Snapshot's write lock is a consistent
	// cut of memory *and* log.
	wal        *wal
	dataDir    string
	crashHook  CrashHook    // crash-fault injection; nil in production
	snapMu     sync.Mutex   // serializes Snapshot
	snapEvery  int          // auto-snapshot cadence in mutations; <=0 off
	mutations  atomic.Int64 // acknowledged mutations since the last snapshot
	lastSnapAt atomic.Int64 // unix ns of the last durable snapshot (boot time if none)

	httpSrv *http.Server
	// inflight counts admitted requests. drainMu orders every admission
	// (read side) before Shutdown's wait (write side, which sets
	// draining), so no inflight.Add can run concurrently with its Wait.
	inflight sync.WaitGroup
	drainMu  sync.RWMutex
	draining bool

	// hookEntered, when set (tests only), is called after a mutating
	// handler has been admitted but before it touches state — the drain
	// test uses it to park requests in flight across a Shutdown call.
	hookEntered func(route string)
}

// New builds the pool, registry, limiter, and instruments, and wires the
// HTTP routes. The pool construction is deterministic in (Params, Seed).
func New(cfg Config) (*Server, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("authd: %w", err)
	}
	lim := LimitsFromParams(cfg.Params)
	if err := lim.Validate(); err != nil {
		return nil, err
	}
	if cfg.Rate == 0 {
		cfg.Rate, cfg.Burst = 64, 128
	}
	if cfg.Rate > 0 && cfg.Burst < 1 {
		cfg.Burst = int(cfg.Rate)
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.now == nil {
		cfg.now = time.Now //jrsnd:allow wallclock default clock for the live network service; tests inject cfg.now and the protocol engine never reaches this path
	}

	poolRng := rand.New(rand.NewSource(cfg.Seed))
	pool, err := codepool.New(codepool.Config{
		N: cfg.Params.N, M: cfg.Params.M, L: cfg.Params.L, Rand: poolRng,
	})
	if err != nil {
		return nil, fmt.Errorf("authd: %w", err)
	}
	rev, err := codepool.NewRevoker(cfg.Params.Gamma)
	if err != nil {
		return nil, fmt.Errorf("authd: %w", err)
	}

	s := &Server{
		cfg:     cfg,
		lim:     lim,
		pool:    pool,
		joinRng: rand.New(rand.NewSource(cfg.Seed + 1)),
		rev:     rev,
		reg:     newRegistry(),
		m:       newServerMetrics(cfg.Metrics),
		tracer:  trace.NewTracer(cfg.Trace),
		start:   cfg.now(),
	}
	if cfg.EnableProfiling {
		s.rc = metrics.NewRuntimeCollector(cfg.Metrics)
	}
	if cfg.Rate > 0 {
		s.rl = newLimiter(cfg.Rate, cfg.Burst, cfg.now)
	}
	if cfg.Durable.Dir != "" {
		if err := s.openDurable(cfg.Durable); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// Handler returns the service's HTTP handler, for mounting under a
// caller-owned http.Server or an httptest server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("authd: listen: %w", err)
	}
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Shutdown drains the service gracefully: from its start every new
// request is refused with 503, the listener closes, in-flight requests
// run to completion (both the HTTP server's connection tracking and the
// handler-level WaitGroup are awaited), the WAL is fsynced and closed,
// and ctx bounds the wait. After Shutdown a durable server refuses
// further mutations (ErrWALClosed) — reopen the directory with New to
// resume.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if s.wal != nil {
		if werr := s.wal.close(); err == nil {
			err = werr
		}
	}
	return err
}

// admit registers a request with inflight, or reports false once
// Shutdown has begun draining.
func (s *Server) admit() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Epoch returns the current distribution epoch: the number of §V-A batch
// expansions run so far (epoch 0 is the pre-deployment distribution).
func (s *Server) Epoch() int {
	s.poolMu.RLock()
	defer s.poolMu.RUnlock()
	return s.pool.Expansions()
}

// provision claims up to count deployment slots and records their
// assignments, returning the WAL sequence of the logged claim (0 when
// in-memory). The slot cursor is a compare-and-swap claim, so concurrent
// calls get disjoint ranges; only the per-slot record insert takes the
// registry lock. Claim, apply and append all run under poolMu's read
// side, so a snapshot's cut never separates a claimed cursor, its
// registry records and its log record.
func (s *Server) provision(count int, tag string) ([]Assignment, uint64, error) {
	now := s.cfg.now()
	s.poolMu.RLock()
	defer s.poolMu.RUnlock()
	start, end, err := s.claimSlots(count)
	if err != nil {
		return nil, 0, err
	}
	out, err := s.applyProvision(start, end-start, tag, now)
	if err != nil {
		return nil, 0, err
	}
	seq, err := s.commit(walRecord{
		Kind: walProvision, Start: start, Count: end - start, Tag: tag, At: now.UnixNano(),
	})
	if err != nil {
		return nil, 0, err
	}
	s.m.provisionedNodes.Add(uint64(len(out)))
	return out, seq, nil
}

// claimSlots reserves the deployment slots [start, end), end - start =
// min(count, slots left). The compare-and-swap never moves the cursor past
// N, so a refused or clamped claim leaves it exactly where replaying the
// log would.
func (s *Server) claimSlots(count int) (int, int, error) {
	n := int64(s.cfg.Params.N)
	for {
		start := s.nextSlot.Load()
		if start >= n {
			return 0, 0, ErrExhausted
		}
		end := min(start+int64(count), n)
		if s.nextSlot.CompareAndSwap(start, end) {
			return int(start), int(end), nil
		}
	}
}

// join admits one late node per §V-A, reporting whether the admission
// forced a batch expansion (and therefore advanced the epoch). Apply and
// WAL append both happen under the write lock, so the logged join order
// is the joinRng consumption order.
func (s *Server) join(tag string) (Assignment, bool, uint64, error) {
	now := s.cfg.now()
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	a, expanded, err := s.applyJoin(tag, now)
	if err != nil {
		return Assignment{}, false, 0, err
	}
	seq, err := s.commit(walRecord{
		Kind: walJoin, Node: a.Node, Expanded: expanded, Tag: tag, At: now.UnixNano(),
	})
	if err != nil {
		return Assignment{}, false, 0, err
	}
	s.m.joins.Inc()
	if expanded {
		s.m.expansions.Inc()
	}
	return a, expanded, seq, nil
}

// revoke routes one invalid-code report through the Revoker. The
// exactly-one-revocation guarantee is the Revoker's: of any set of
// concurrent reports for a code, exactly one observes RevokedNow — and it
// survives restarts, because the report counters are commutative and the
// γ-crossing is a deterministic function of the replayed count. poolMu's
// read side is held across report+append so a snapshot's cut always
// contains a report if and only if the log (prefix) does.
func (s *Server) revoke(code codepool.CodeID) (RevokeResult, error) {
	s.poolMu.RLock()
	defer s.poolMu.RUnlock()
	poolSize := s.pool.S()
	if int(code) < 0 || int(code) >= poolSize {
		return RevokeResult{}, fmt.Errorf("%w: code %d outside pool [0, %d)", ErrField, code, poolSize)
	}
	now := s.applyRevoke(code)
	seq, err := s.commit(walRecord{Kind: walRevoke, Code: int32(code), At: s.cfg.now().UnixNano()})
	if err != nil {
		return RevokeResult{}, err
	}
	s.m.revokeReports.Inc()
	if now {
		s.m.revokedCodes.Inc()
	}
	return RevokeResult{
		Code:       int32(code),
		Count:      s.rev.Count(code),
		Revoked:    s.rev.Revoked(code),
		RevokedNow: now,
		Seq:        seq,
	}, nil
}

// poison marks the durable layer failed after a memory/log divergence
// (state applied but unloggable): the server stops acknowledging
// mutations rather than let memory drift ahead of what a restart could
// reconstruct. No-op when not durable.
func (s *Server) poison(err error) {
	if s.wal != nil {
		s.wal.poison(err)
	}
}

// epochInfo snapshots the distribution-state counters for GET /v1/epoch.
func (s *Server) epochInfo() EpochInfo {
	s.poolMu.RLock()
	defer s.poolMu.RUnlock()
	return EpochInfo{
		Epoch:       s.pool.Expansions(),
		VacantSlots: s.pool.VacantSlots(),
		PoolSize:    s.pool.S(),
		Provisioned: int(s.nextSlot.Load()),
		Joined:      s.pool.N() - s.cfg.Params.N,
		Revoked:     s.rev.RevokedCodes(),
	}
}
