package authd

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/codepool"
)

// TestConcurrentProvisionJoinRevoke hammers one Server with parallel
// provision + join + revoke traffic from many goroutines (run under
// -race via `make tier1`) and asserts the two service-level safety
// properties: no deployment slot or joined node ID is ever handed to two
// clients, and of all concurrent reports for one code exactly one
// observes the revocation.
func TestConcurrentProvisionJoinRevoke(t *testing.T) {
	const (
		provisioners = 8
		joiners      = 6
		revokers     = 8
		perWorker    = 12
	)
	srv, err := New(Config{Params: testParams(200, 4, 8), Seed: 11, Rate: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	var (
		mu         sync.Mutex
		nodes      []int
		revokedNow = map[int32]int{}
	)
	var wg sync.WaitGroup

	for w := 0; w < provisioners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &Client{Base: ts.URL, ClientID: "prov", MaxAttempts: 1}
			for i := 0; i < perWorker; i++ {
				resp, err := cl.Provision(ctx, 3, "race")
				if errors.Is(err, ErrExhausted) {
					return
				}
				if err != nil {
					t.Errorf("provision: %v", err)
					return
				}
				mu.Lock()
				for _, a := range resp.Nodes {
					nodes = append(nodes, a.Node)
				}
				mu.Unlock()
			}
		}(w)
	}
	for w := 0; w < joiners; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &Client{Base: ts.URL, ClientID: "join", MaxAttempts: 1}
			for i := 0; i < perWorker; i++ {
				resp, err := cl.Join(ctx, "race")
				if err != nil {
					t.Errorf("join: %v", err)
					return
				}
				mu.Lock()
				nodes = append(nodes, resp.Node)
				mu.Unlock()
			}
		}()
	}
	// All revokers gang up on the same few codes, far past γ.
	targets := []int32{0, 1, 2}
	for w := 0; w < revokers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &Client{Base: ts.URL, ClientID: "rev", MaxAttempts: 1}
			for i := 0; i < perWorker; i++ {
				for _, code := range targets {
					rr, err := cl.Revoke(ctx, code)
					if err != nil {
						t.Errorf("revoke: %v", err)
						return
					}
					if rr.RevokedNow {
						mu.Lock()
						revokedNow[code]++
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()

	// No node ID was ever assigned twice.
	seen := map[int]bool{}
	for _, n := range nodes {
		if seen[n] {
			t.Fatalf("node %d assigned to two clients", n)
		}
		seen[n] = true
	}
	// The provisioners asked for more than N slots: the cursor stops at N,
	// and every deployment slot went to some client.
	if got := srv.nextSlot.Load(); got != 200 {
		t.Fatalf("slot cursor = %d after exhaustion, want N = 200", got)
	}
	for slot := 0; slot < 200; slot++ {
		if !seen[slot] {
			t.Fatalf("deployment slot %d was never handed out", slot)
		}
	}
	// Every provisioned and joined node has a consistent record.
	for _, n := range nodes {
		rec, ok := srv.reg.get(n)
		if !ok {
			t.Fatalf("node %d missing from the registry", n)
		}
		if len(rec.Codes) != 4 {
			t.Fatalf("node %d has %d codes, want 4", n, len(rec.Codes))
		}
	}
	// Exactly one revocation per hammered code.
	for _, code := range targets {
		if got := revokedNow[code]; got != 1 {
			t.Fatalf("code %d observed RevokedNow %d times, want exactly 1", code, got)
		}
		if !srv.rev.Revoked(codepool.CodeID(code)) {
			t.Fatalf("code %d not revoked after the hammer", code)
		}
	}
	// The epoch advanced at least once: 200 deployment slots with l=8
	// leave no vacant slots, so the very first join expanded.
	if srv.Epoch() < 1 {
		t.Fatalf("epoch = %d after %d joins, want >= 1", srv.Epoch(), joiners*perWorker)
	}
}
