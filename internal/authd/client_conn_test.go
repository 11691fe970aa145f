package authd

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientReusesConnections is the keep-alive regression test: a Client
// rides the shared package transport and must reuse its TCP connection
// across sequential requests instead of re-dialing per call (the failure
// mode of building a transport per request, which understated every
// loadgen number).
func TestClientReusesConnections(t *testing.T) {
	srv, err := New(Config{Params: testParams(64, 4, 4), Seed: 5, Rate: -1})
	if err != nil {
		t.Fatal(err)
	}
	var newConns atomic.Int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			newConns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	cl := &Client{Base: ts.URL, ClientID: "conn-reuse", MaxAttempts: 1}
	ctx := context.Background()
	const ops = 40
	for i := 0; i < ops; i++ {
		switch i % 3 {
		case 0:
			if _, err := cl.Provision(ctx, 1, "reuse"); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := cl.Epoch(ctx); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := cl.Revoke(ctx, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Sequential requests over one warm keep-alive connection: allow a
	// little slack for scheduler-raced idle returns, but 40 requests must
	// not open anywhere near 40 sockets.
	if n := newConns.Load(); n > 4 {
		t.Fatalf("%d ops opened %d TCP connections; keep-alive reuse is broken", ops, n)
	}
}
