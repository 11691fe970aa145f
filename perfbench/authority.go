package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/authd"
	"repro/internal/metrics"
)

// authority is the service workload: an in-process authd.Server on
// loopback with a durable WAL (fsync per append), driven by
// authd.RunLoad in a closed loop. It measures authd and the WAL, and
// uses the code pool for writes (join and revoke) rather than reads.
//
// Every batch runs on a freshly booted server with its own data
// directory, and a batch claims at most requests × authBatch deployment
// slots, no more than the deployment has. So no provision is refused and
// every timed request takes the full write path.
type authority struct {
	// requests is the closed-loop batch one pass sends.
	requests int
	seed     int64
	tmp      string
	boots    int
	plain    *server
	// traced records its request spans in sink, which outlives its
	// reboots.
	traced *server
	sink   *memSink
	chunk  int64
	// collect is set in a traced run: each plain server's /metrics is
	// added to scraped before the server is retired.
	collect bool
	scraped serverStats
	// perOp collects the client's per-operation percentiles (ms) of the
	// untraced passes.
	perOp map[string][]float64
}

// Load shape: 2 workers (no more than the reference host's CPUs), the
// default 70/10/20 provision/join/revoke mix, 2 slots per provision.
const (
	authWorkers = 2
	authBatch   = 2
)

var authRoutes = []string{"provision", "join", "revoke"}

// server is one booted authority with its own data directory.
type server struct {
	srv  *authd.Server
	base string
	dir  string
}

// setup boots a fresh durable server: authd.New (pool build and WAL
// open) and Start, then one probe request.
func (a *authority) setup(seed int64) error {
	slots := analysis.Defaults().N
	if a.requests == 0 {
		a.requests = slots / authBatch
	}
	if a.requests*authBatch > slots {
		return fmt.Errorf("a batch of %d requests could claim more than the %d deployment slots", a.requests, slots)
	}
	a.close()
	dir, err := os.MkdirTemp("", "perfbench-authd-")
	if err != nil {
		return fmt.Errorf("data dir: %w", err)
	}
	a.tmp, a.seed = dir, seed
	a.plain, err = a.boot("plain", nil)
	return err
}

// boot starts a server in a new directory under the run's.
func (a *authority) boot(name string, sink *memSink) (*server, error) {
	a.boots++
	dir := filepath.Join(a.tmp, fmt.Sprintf("%s-%d", name, a.boots))
	cfg := authd.Config{
		Params:  analysis.Defaults(),
		Seed:    a.seed,
		Rate:    -1, // measure the service, not the per-client limiter
		Durable: authd.Durability{Dir: dir},
	}
	if sink != nil {
		cfg.Trace = sink
	}
	srv, err := authd.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, dir: dir}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.base = "http://" + addr
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := (&authd.Client{Base: s.base, ClientID: "perfbench"}).Healthz(ctx); err != nil {
		s.stop()
		return nil, fmt.Errorf("probe: %w", err)
	}
	return s, nil
}

// stop shuts the server down and deletes its data.
func (s *server) stop() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // teardown; the data is deleted next
	_ = os.RemoveAll(s.dir) // scratch data; nothing to keep
}

func (a *authority) close() {
	a.plain.stop()
	a.traced.stop()
	a.plain, a.traced, a.sink = nil, nil, nil
	a.collect, a.scraped, a.perOp = false, serverStats{}, nil
	if a.tmp != "" {
		_ = os.RemoveAll(a.tmp) // scratch data; nothing to keep
		a.tmp = ""
	}
}

// renew retires the servers the last batch used and boots fresh ones.
func (a *authority) renew(ctx context.Context) error {
	if a.collect {
		if err := a.scraped.add(ctx, a.plain.base); err != nil {
			return err
		}
	}
	a.plain.stop()
	var err error
	if a.plain, err = a.boot("plain", nil); err != nil {
		return err
	}
	if a.traced != nil {
		a.traced.stop()
		a.traced, err = a.boot("traced", a.sink)
	}
	return err
}

// load sends one closed-loop batch. Batch i of a run draws its operation
// streams from seed and i, so a run's inputs depend only on its seed.
func (a *authority) load(ctx context.Context, s *server, seed int64) (authd.LoadReport, error) {
	a.chunk++
	return authd.RunLoad(ctx, authd.LoadConfig{
		Target:   s.base,
		Workers:  authWorkers,
		Requests: a.requests,
		Batch:    authBatch,
		Seed:     seed*1_000_003 + a.chunk,
		Timeout:  20 * time.Second,
	})
}

// refused counts a batch's failed requests: errors, unavailable replies,
// and provisions refused for an exhausted deployment, which a fresh
// server per batch rules out.
func refused(rep authd.LoadReport) int {
	n := rep.Errors + rep.Unavailable
	for _, st := range rep.PerOp {
		n += st.Exhausted
	}
	return n
}

// pass sends one batch to the plain server as a timed unit, then renews
// the servers outside the unit.
func (a *authority) pass(ctx context.Context, seed int64, clk *clock) (passResult, error) {
	var rep authd.LoadReport
	err := clk.time(a.requests, func() (err error) {
		rep, err = a.load(ctx, a.plain, seed)
		return err
	})
	if err == nil {
		err = a.renew(ctx)
	}
	if err != nil {
		return passResult{}, err
	}
	if a.perOp == nil {
		a.perOp = map[string][]float64{}
	}
	for op, st := range rep.PerOp {
		a.perOp["p50."+op] = append(a.perOp["p50."+op], float64(st.P50)/1e6)
		a.perOp["p99."+op] = append(a.perOp["p99."+op], float64(st.P99)/1e6)
	}
	return passResult{ops: rep.Ops, failed: refused(rep), p50: rep.P50, p99: rep.P99}, nil
}

// setupTrace boots a second server whose request spans are recorded
// (authd's own "authd.<route>" spans, kept in memory), for the replay,
// and starts collecting the plain servers' /metrics.
func (a *authority) setupTrace(_ int64, tr *tracer) error {
	a.sink = &memSink{}
	tr.extraSink = a.sink
	a.collect = true
	var err error
	a.traced, err = a.boot("traced", a.sink)
	return err
}

// replay sends the same batch to the recording server, which the next
// pass renews.
func (a *authority) replay(ctx context.Context, seed int64, tr *tracer, parent *span) (outputs, error) {
	sp := tr.start(parent, "loadgen.batch")
	rep, err := a.load(ctx, a.traced, seed)
	sp.end()
	if err != nil {
		return nil, err
	}
	if bad := refused(rep); bad > 0 {
		return nil, fmt.Errorf("%d traced requests failed", bad)
	}
	return nil, nil
}

func (a *authority) diverge(int64, string) string { return "authd (no pinned outputs)" }

// serverStats sums the /metrics of the retired plain servers.
type serverStats struct {
	seconds         map[string]float64 // request handling time per route
	requests        map[string]uint64
	appends, fsyncs uint64
}

// add scrapes one server's /metrics.
func (st *serverStats) add(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	snap, err := metrics.ParsePrometheus(resp.Body)
	if err != nil {
		return err
	}
	if st.seconds == nil {
		st.seconds, st.requests = map[string]float64{}, map[string]uint64{}
	}
	for _, route := range authRoutes {
		h := snap.Histograms[`authd_request_seconds{route="`+route+`"}`]
		st.seconds[route] += h.Sum
		st.requests[route] += h.Count
	}
	st.appends += snap.Counters["jrsnd_authd_wal_appends_total"]
	st.fsyncs += snap.Counters["jrsnd_authd_wal_fsyncs_total"]
	return nil
}

// scrape reports the retired servers' mean handling time per route and
// WAL appends per fsync, and folds in the client's per-op percentiles.
func (a *authority) scrape(tr *tracer) error {
	st := a.scraped
	handled, count := 0.0, uint64(0)
	for _, route := range authRoutes {
		if n := st.requests[route]; n > 0 {
			tr.vals["authd.request_s."+route] = st.seconds[route] / float64(n)
		}
		handled += st.seconds[route]
		count += st.requests[route]
	}
	if count == 0 {
		return errors.New("no server metrics were scraped")
	}
	tr.vals["authd.handler_s"] = handled
	tr.count("authd.requests_ok", float64(count))
	if st.fsyncs > 0 {
		tr.vals["authd.wal_appends_per_fsync"] = float64(st.appends) / float64(st.fsyncs)
	}
	for _, op := range authRoutes {
		tr.vals["authd.client_p50_ms."+op] = median(a.perOp["p50."+op])
		tr.vals["authd.client_p99_ms."+op] = median(a.perOp["p99."+op])
	}
	return nil
}
