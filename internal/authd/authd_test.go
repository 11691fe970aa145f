package authd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/metrics"
)

// testParams returns a small parameter set the service tests run fast on.
func testParams(n, m, l int) analysis.Params {
	p := analysis.Defaults()
	p.N, p.M, p.L, p.Gamma = n, m, l, 2
	if p.Q > n {
		p.Q = 0
	}
	return p
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
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
	return srv, &Client{Base: "http://" + addr, ClientID: t.Name()}
}

func TestProvisionJoinRevokeEndToEnd(t *testing.T) {
	srv, cl := newTestServer(t, Config{Params: testParams(32, 4, 4), Seed: 7, Rate: -1})
	ctx := context.Background()

	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	// Provision a batch: sequential slots, m codes each.
	resp, err := cl.Provision(ctx, 3, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 3 {
		t.Fatalf("provisioned %d nodes, want 3", len(resp.Nodes))
	}
	for i, a := range resp.Nodes {
		if a.Node != i {
			t.Fatalf("node %d at index %d, want sequential slots", a.Node, i)
		}
		if len(a.Codes) != 4 {
			t.Fatalf("node %d got %d codes, want m=4", a.Node, len(a.Codes))
		}
	}

	// The assignment is visible through the registry lookup.
	info, err := cl.Node(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Via != "provision" || info.Tag != "alpha" || len(info.Codes) != 4 {
		t.Fatalf("node record = %+v, want provision/alpha with 4 codes", info)
	}
	if _, err := cl.Node(ctx, 999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown node error = %v, want ErrNotFound", err)
	}

	// Join admits a node past the deployment.
	jr, err := cl.Join(ctx, "late")
	if err != nil {
		t.Fatal(err)
	}
	if jr.Node < 32 {
		t.Fatalf("joined node %d collides with deployment slots", jr.Node)
	}
	if len(jr.Codes) != 4 {
		t.Fatalf("joined node got %d codes, want 4", len(jr.Codes))
	}

	// Revoke crosses the γ=2 threshold on the third report, exactly once.
	revokedNow := 0
	for i := 0; i < 4; i++ {
		rr, err := cl.Revoke(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rr.RevokedNow {
			revokedNow++
		}
		if i >= 2 && !rr.Revoked {
			t.Fatalf("report %d: code not revoked past γ", i+1)
		}
	}
	if revokedNow != 1 {
		t.Fatalf("RevokedNow observed %d times, want exactly 1", revokedNow)
	}

	// Out-of-pool code is a field error.
	if _, err := cl.Revoke(ctx, int32(srv.pool.S())); !errors.Is(err, ErrField) {
		t.Fatalf("out-of-pool revoke error = %v, want ErrField", err)
	}
}

func TestProvisionExhaustsDeploymentSlots(t *testing.T) {
	_, cl := newTestServer(t, Config{Params: testParams(8, 3, 4), Seed: 1, Rate: -1})
	ctx := context.Background()

	resp, err := cl.Provision(ctx, 6, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 6 {
		t.Fatalf("got %d nodes, want 6", len(resp.Nodes))
	}
	// Over-claim is clamped to the remaining slots.
	resp, err = cl.Provision(ctx, 6, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Nodes) != 2 {
		t.Fatalf("got %d nodes, want the 2 remaining", len(resp.Nodes))
	}
	// A further provision is a 409 → ErrExhausted.
	if _, err := cl.Provision(ctx, 1, ""); !errors.Is(err, ErrExhausted) {
		t.Fatalf("error = %v, want ErrExhausted", err)
	}
}

// TestJoinExhaustionAdvancesEpoch covers the §V-A late-join exhaustion
// path end-to-end through the service: consuming every pre-provisioned
// virtual-node slot forces the authority to run further distribution
// rounds, which advances the epoch counter visible via GET /v1/epoch.
func TestJoinExhaustionAdvancesEpoch(t *testing.T) {
	// n = 37, l = 8 → w = 5 subsets pad to 40: 3 vacant virtual slots.
	_, cl := newTestServer(t, Config{Params: testParams(37, 4, 8), Seed: 3, Rate: -1})
	ctx := context.Background()

	info, err := cl.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 0 || info.VacantSlots != 3 {
		t.Fatalf("initial epoch state = %+v, want epoch 0 with 3 vacant slots", info)
	}

	// The three vacant slots absorb three joins without expansion.
	for i := 0; i < 3; i++ {
		jr, err := cl.Join(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		if jr.Expanded || jr.Epoch != 0 {
			t.Fatalf("join %d: expanded=%v epoch=%d, want no expansion at epoch 0", i, jr.Expanded, jr.Epoch)
		}
	}

	// The fourth join exhausts the spares: the authority must run a
	// further batch of w = 5 rounds and the epoch advances.
	jr, err := cl.Join(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !jr.Expanded || jr.Epoch != 1 {
		t.Fatalf("exhaustion join: expanded=%v epoch=%d, want expansion at epoch 1", jr.Expanded, jr.Epoch)
	}

	info, err = cl.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 {
		t.Fatalf("epoch = %d after expansion, want 1", info.Epoch)
	}
	if info.VacantSlots != 4 {
		t.Fatalf("vacant = %d after batch of 5 minus 1, want 4", info.VacantSlots)
	}
	if info.Joined != 4 {
		t.Fatalf("joined = %d, want 4", info.Joined)
	}

	// Drain the rest of the batch and push into a second expansion.
	for i := 0; i < 5; i++ {
		if _, err := cl.Join(ctx, ""); err != nil {
			t.Fatal(err)
		}
	}
	info, err = cl.Epoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 2 {
		t.Fatalf("epoch = %d after 9 joins, want 2", info.Epoch)
	}
}

func TestRateLimiterRefusesAndRefills(t *testing.T) {
	clock := time.Unix(1000, 0)
	cfg := Config{
		Params: testParams(64, 3, 4),
		Seed:   1,
		Rate:   2, Burst: 2,
		now: func() time.Time { return clock },
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	do := func(client string) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/provision", strings.NewReader(`{"count":1}`))
		req.Header.Set("X-Client-ID", client)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		return w.Code
	}
	// Burst of 2, then refusal.
	if got := do("a"); got != http.StatusOK {
		t.Fatalf("request 1 = %d, want 200", got)
	}
	if got := do("a"); got != http.StatusOK {
		t.Fatalf("request 2 = %d, want 200", got)
	}
	if got := do("a"); got != http.StatusTooManyRequests {
		t.Fatalf("request 3 = %d, want 429", got)
	}
	// A different client has its own bucket.
	if got := do("b"); got != http.StatusOK {
		t.Fatalf("other client = %d, want 200", got)
	}
	// Half a second refills one token at 2 req/s.
	clock = clock.Add(500 * time.Millisecond)
	if got := do("a"); got != http.StatusOK {
		t.Fatalf("after refill = %d, want 200", got)
	}
	if got := do("a"); got != http.StatusTooManyRequests {
		t.Fatalf("bucket dry again = %d, want 429", got)
	}
	// GET routes are never limited.
	req := httptest.NewRequest(http.MethodGet, "/v1/epoch", nil)
	req.Header.Set("X-Client-ID", "a")
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("epoch while limited = %d, want 200", w.Code)
	}
	if srv.m.ratelimited.Value() != 2 {
		t.Fatalf("ratelimited counter = %d, want 2", srv.m.ratelimited.Value())
	}
}

// TestShutdownDrainsInflight parks a request inside a handler, starts a
// graceful shutdown, and asserts the shutdown waits for the request and
// the request completes successfully.
func TestShutdownDrainsInflight(t *testing.T) {
	srv, err := New(Config{Params: testParams(32, 3, 4), Seed: 1, Rate: -1})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.hookEntered = func(route string) {
		if route == "provision" {
			close(entered)
			<-release
		}
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{Base: "http://" + addr, MaxAttempts: 1}

	reqDone := make(chan error, 1)
	go func() {
		_, err := cl.Provision(context.Background(), 1, "drain")
		reqDone <- err
	}()
	<-entered

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()

	// The shutdown must not complete while the request is parked.
	select {
	case err := <-shutDone:
		t.Fatalf("shutdown returned %v with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// After shutdown the listener is closed: a fresh request fails.
	if err := cl.Healthz(context.Background()); err == nil {
		t.Fatal("request succeeded after shutdown")
	}
}

// TestShutdownRacesRequests fires requests at the handler from several
// goroutines while Shutdown drains. Every request must be served or
// refused with 503, a request after Shutdown returns must be refused,
// and under -race no admission may run concurrently with the drain's
// wait on the in-flight count.
func TestShutdownRacesRequests(t *testing.T) {
	for round := 0; round < 20; round++ {
		srv, err := New(Config{Params: testParams(32, 3, 4), Seed: 1, Rate: -1})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		get := func() int {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/epoch", nil))
			return w.Code
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		served := make(chan struct{}, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					code := get()
					if i == 0 {
						served <- struct{}{}
					}
					if code != http.StatusOK && code != http.StatusServiceUnavailable {
						t.Errorf("status %d racing Shutdown, want 200 or 503", code)
						return
					}
				}
			}()
		}
		for g := 0; g < 4; g++ {
			<-served
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if code := get(); code != http.StatusServiceUnavailable {
			t.Errorf("status %d after Shutdown, want 503", code)
		}
		stop.Store(true)
		wg.Wait()
	}
}

func TestMetricsEndpointExposesCounters(t *testing.T) {
	reg := metrics.New()
	_, cl := newTestServer(t, Config{Params: testParams(32, 3, 4), Seed: 1, Rate: -1, Metrics: reg})
	ctx := context.Background()

	if _, err := cl.Provision(ctx, 2, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Revoke(ctx, 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Join(ctx, ""); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(cl.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	snap, err := metrics.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		`authd_requests_total{route="provision"}`: 1,
		`authd_requests_total{route="revoke"}`:    3,
		`authd_requests_total{route="join"}`:      1,
		"authd_provisioned_nodes_total":           2,
		"authd_revoke_reports_total":              3,
		"authd_revoked_codes_total":               1,
		"authd_joins_total":                       1,
	}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

func TestDecodeErrorsSurfaceAsHTTPStatuses(t *testing.T) {
	srv, err := New(Config{Params: testParams(32, 3, 4), Seed: 1, Rate: -1})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		return w
	}
	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"bad json", "/v1/provision", `{"count":`, http.StatusBadRequest},
		{"unknown field", "/v1/provision", `{"cout":1}`, http.StatusBadRequest},
		{"count too big", "/v1/provision", `{"count":100000}`, http.StatusBadRequest},
		{"negative code", "/v1/revoke", `{"code":-1}`, http.StatusBadRequest},
		{"trailing data", "/v1/join", `{} {}`, http.StatusBadRequest},
		{"oversized body", "/v1/provision", `{"tag":"` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge},
		{"empty body ok", "/v1/provision", ``, http.StatusOK},
	}
	for _, tc := range cases {
		w := post(tc.path, tc.body)
		if w.Code != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, w.Code, tc.wantStatus, w.Body.String())
		}
		if w.Code >= 400 {
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Errorf("%s: error body %q not structured", tc.name, w.Body.String())
			}
		}
	}
	if srv.m.decodeErrors.Value() == 0 {
		t.Error("decode error counter never incremented")
	}
	// Method mismatch is 405 with an Allow header.
	req := httptest.NewRequest(http.MethodGet, "/v1/provision", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed || w.Header().Get("Allow") != http.MethodPost {
		t.Errorf("GET on provision: %d Allow=%q", w.Code, w.Header().Get("Allow"))
	}
}

func TestClientRetriesWithFullJitterBackoff(t *testing.T) {
	// A flaky upstream: two 503s, then success.
	var calls int
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(EpochInfo{Epoch: 42, PoolSize: 1})
	}))
	defer upstream.Close()

	cl := &Client{
		Base:        upstream.URL,
		MaxAttempts: 4,
		BackoffBase: time.Microsecond,
	}
	info, err := cl.Epoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 42 || calls != 3 {
		t.Fatalf("epoch %d after %d calls, want 42 after 3", info.Epoch, calls)
	}

	// Non-retryable statuses fail immediately.
	calls = 0
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(errorBody{Error: "deployment slots exhausted"})
	}))
	defer bad.Close()
	cl = &Client{Base: bad.URL, MaxAttempts: 5, BackoffBase: time.Microsecond}
	if _, err := cl.Provision(context.Background(), 1, ""); !errors.Is(err, ErrExhausted) {
		t.Fatalf("error = %v, want ErrExhausted", err)
	}
	if calls != 1 {
		t.Fatalf("409 retried %d times, want exactly 1 call", calls)
	}
}

func TestRegistryInvariants(t *testing.T) {
	r := newRegistry()
	for node := 0; node < 100; node++ {
		if err := r.insert(node, record{Via: "provision"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.insert(7, record{}); err == nil {
		t.Fatal("double insert must fail")
	}
	if r.count() != 100 {
		t.Fatalf("count = %d, want 100", r.count())
	}
	if _, ok := r.get(-1); ok {
		t.Fatal("negative node must not resolve")
	}
}

// TestLimiterSweepsIdleBuckets: once the bucket map reaches sweepAt, the
// next new client sweeps every bucket idle for a full refill. The map
// shrinks, a bucket still in use survives with its tokens, and a swept
// client comes back with exactly Burst tokens — no more than it would
// have had if it had been kept.
func TestLimiterSweepsIdleBuckets(t *testing.T) {
	const rate, burst = 2, 3
	clock := time.Unix(1000, 0)
	l := newLimiter(rate, burst, func() time.Time { return clock })
	spend := func(client string) int {
		n := 0
		for l.allow(client) {
			n++
		}
		return n
	}
	for i := 0; i < sweepAt-1; i++ {
		if !l.allow(fmt.Sprintf("idle-%d", i)) {
			t.Fatalf("fresh client %d refused", i)
		}
	}
	if got := spend("hot"); got != burst {
		t.Fatalf("hot client spent %d tokens, want %d", got, burst)
	}
	if got := len(l.buckets); got != sweepAt {
		t.Fatalf("%d buckets before the sweep, want %d", got, sweepAt)
	}

	// A full refill later, hot refills and spends one token, so it is no
	// longer idle; the next new client then triggers the sweep.
	clock = clock.Add(time.Duration(float64(burst) / rate * float64(time.Second)))
	if !l.allow("hot") {
		t.Fatal("hot client refused after a full refill")
	}
	if !l.allow("newcomer") {
		t.Fatal("newcomer refused")
	}
	if got := len(l.buckets); got != 2 {
		t.Fatalf("%d buckets after the sweep, want 2 (hot, newcomer)", got)
	}
	if got := spend("hot"); got != burst-1 {
		t.Fatalf("surviving hot bucket had %d tokens, want %d", got, burst-1)
	}
	if got := spend("idle-0"); got != burst {
		t.Fatalf("swept client got %d tokens back, want exactly %d", got, burst)
	}
}
