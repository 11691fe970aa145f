package authd

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/codepool"
)

// TestLedgerCatchesEachViolation seeds one breach of each kind the crash
// matrix and harness guard against and requires exactly one violation
// for it, so a Ledger that stopped reporting would fail here even while
// the harnesses, which never see a breach, keep passing.
func TestLedgerCatchesEachViolation(t *testing.T) {
	const gamma = 2
	type authority struct {
		epoch   int
		nodes   map[int][]codepool.CodeID
		revoked map[int32]bool
	}
	cases := []struct {
		name   string
		record func(*Ledger)    // extra acknowledgments after the clean history
		breach func(*authority) // damage to the recovered authority
		want   int
	}{
		{name: "clean", want: 0},
		{
			name: "node acked twice",
			record: func(l *Ledger) {
				l.Join(JoinResponse{Node: 1, Codes: []codepool.CodeID{1, 2}, Epoch: 1})
			},
			want: 1,
		},
		{
			name:   "second RevokedNow",
			record: func(l *Ledger) { l.Revoke(RevokeResult{Code: 5, Revoked: true, RevokedNow: true}) },
			want:   1,
		},
		{name: "lost node", breach: func(a *authority) { delete(a.nodes, 2) }, want: 1},
		{name: "changed codes", breach: func(a *authority) { a.nodes[1] = []codepool.CodeID{1, 9} }, want: 1},
		{name: "epoch regression", breach: func(a *authority) { a.epoch = 0 }, want: 1},
		{
			name: "code past γ unrevoked",
			record: func(l *Ledger) {
				for i := 1; i <= gamma+1; i++ {
					l.Revoke(RevokeResult{Code: 6, Count: i}) // the RevokedNow answer was never received
				}
			},
			want: 1,
		},
		{name: "acked revocation lost", breach: func(a *authority) { delete(a.revoked, 5) }, want: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			led := NewLedger(gamma)
			led.Provision(ProvisionResponse{Nodes: []Assignment{{Node: 1, Codes: []codepool.CodeID{1, 2}}}, Seq: 1})
			led.Join(JoinResponse{Node: 2, Codes: []codepool.CodeID{3, 4}, Epoch: 1, Expanded: true, Seq: 2})
			for i := 1; i <= gamma+1; i++ {
				led.Revoke(RevokeResult{Code: 5, Count: i, Revoked: i > gamma, RevokedNow: i > gamma, Seq: uint64(2 + i)})
			}
			a := authority{
				epoch:   1,
				nodes:   map[int][]codepool.CodeID{1: {1, 2}, 2: {3, 4}},
				revoked: map[int32]bool{5: true},
			}
			if tc.record != nil {
				tc.record(led)
			}
			if tc.breach != nil {
				tc.breach(&a)
			}
			led.Check(View{
				Epoch: a.epoch,
				Node: func(node int) ([]codepool.CodeID, error) {
					codes, ok := a.nodes[node]
					if !ok {
						return nil, ErrNotFound
					}
					return codes, nil
				},
				Revoked: func(code int32) bool { return a.revoked[code] },
			})
			if got := led.Violations(); len(got) != tc.want {
				t.Fatalf("%d violations, want %d:\n%s", len(got), tc.want, strings.Join(got, "\n"))
			}
			if led.AckedSeq() != gamma+3 {
				t.Fatalf("acked seq %d, want %d", led.AckedSeq(), gamma+3)
			}
		})
	}
}

// TestLedgerConcurrentRecording records and checks from several
// goroutines at once and requires that no acknowledgment is lost or
// misflagged.
func TestLedgerConcurrentRecording(t *testing.T) {
	const workers, each = 4, 50
	led := NewLedger(workers * each)
	view := View{
		Node:    func(node int) ([]codepool.CodeID, error) { return []codepool.CodeID{codepool.CodeID(node)}, nil },
		Revoked: func(int32) bool { return false },
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < each; i++ {
			led.Check(view)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				node := w*each + i
				led.Join(JoinResponse{Node: node, Codes: []codepool.CodeID{codepool.CodeID(node)}, Seq: uint64(node + 1)})
				led.Revoke(RevokeResult{Code: 7, Seq: uint64(node + 1)})
			}
		}(w)
	}
	wg.Wait()
	led.Check(view)
	if v := led.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if got, want := led.AckedOps(), 2*workers*each; got != want {
		t.Fatalf("acked ops %d, want %d", got, want)
	}
	if got, want := led.Reports(7), workers*each; got != want {
		t.Fatalf("reports %d, want %d", got, want)
	}
	if got, want := led.AckedSeq(), uint64(workers*each); got != want {
		t.Fatalf("acked seq %d, want %d", got, want)
	}
}
