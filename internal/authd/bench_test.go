package authd

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/metrics"
)

// Service-level micro-benches: one full handler pass (decode → sharded
// state → encode) without network, so the numbers isolate the service
// from the kernel's loopback stack. The loadgen (`jrsnd-authority
// -loadgen`, the benchmark's `authority` workload) measures the same
// paths over real HTTP.

func benchServer(b *testing.B, n int) *Server {
	b.Helper()
	if n < 16 {
		n = 16
	}
	p := analysis.Defaults()
	p.N, p.M, p.L, p.Gamma, p.Q = n, 4, 8, 5, 0
	srv, err := New(Config{Params: p, Seed: 1, Rate: -1})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

func BenchmarkProvision(b *testing.B) {
	// The pool is sized from b.N so the deployment never exhausts
	// mid-measurement; construction stays outside the timer.
	srv := benchServer(b, b.N+1)
	h := srv.Handler()
	body := `{"count":1}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/provision", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

func BenchmarkProvisionParallel(b *testing.B) {
	srv := benchServer(b, b.N+1)
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/provision", strings.NewReader(`{"count":1}`))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
}

func BenchmarkRevoke(b *testing.B) {
	srv := benchServer(b, 4096)
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/revoke", strings.NewReader(`{"code":7}`))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkWALAppend measures the durability hot path: encode one
// mutation record, write it, fsync (every append is durable before it
// returns, so the number is the real cost an acknowledged mutation pays). Gated by
// jrsnd-benchgate against BENCH_authd_go.json.
func BenchmarkWALAppend(b *testing.B) {
	reg := metrics.New()
	w, err := openWAL(filepath.Join(b.TempDir(), "wal.log"), 0, nil, nil,
		reg.Counter("bench_appends", "b"), reg.Counter("bench_fsyncs", "b"))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = w.close() }()
	rec := walRecord{Kind: walJoin, Node: 42, Expanded: false, Tag: "bench", At: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.append(rec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendGroupCommit measures the same hot path under
// concurrent appenders, where group commit lets one fsync cover every
// record written while the previous fsync was in flight. Gated by
// jrsnd-benchgate against BENCH_authd_go.json.
func BenchmarkWALAppendGroupCommit(b *testing.B) {
	reg := metrics.New()
	w, err := openWAL(filepath.Join(b.TempDir(), "wal.log"), 0, nil, nil,
		reg.Counter("bench_gc_appends", "b"), reg.Counter("bench_gc_fsyncs", "b"))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = w.close() }()
	rec := walRecord{Kind: walJoin, Node: 42, Expanded: false, Tag: "bench", At: 1}
	// Eight appenders per proc: coalescing needs concurrent writers even on
	// a single-CPU box, and fsync blocks in a syscall, so waiting appenders
	// still get scheduled and pile onto the leader's sync group.
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := w.append(rec, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeProvisionRequest(b *testing.B) {
	lim := LimitsFromParams(analysis.Defaults())
	body := []byte(`{"count":32,"tag":"bench"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeProvisionRequest(body, lim); err != nil {
			b.Fatal(err)
		}
	}
}
