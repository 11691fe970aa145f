package authd

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/codepool"
)

// Ledger is a fault harness's memory of what the authority acknowledged,
// recorded in wire shapes: the ground truth that the in-process crash
// matrix and the subprocess crash harness check a recovered authority
// against. The authority may hold *more* (a
// CrashPostAppend mutation is durable but unacknowledged; at-least-once is
// the contract), never less.
//
// Two breaches show as they are recorded: a node acknowledged twice
// (every provision or join claims fresh slots and the client sends no
// idempotency key, so no path may do that), and a second RevokedNow for
// one code. A Ledger is safe for concurrent use.
type Ledger struct {
	gamma int

	mu         sync.Mutex
	nodes      map[int][]codepool.CodeID
	maxEpoch   int
	reports    map[int32]int  // acknowledged reports per code
	revokedNow map[int32]bool // codes acknowledged RevokedNow
	ackedOps   int            // acknowledged nodes plus acknowledged reports
	violations []string
}

// NewLedger returns an empty ledger for an authority whose revocation
// threshold is gamma.
func NewLedger(gamma int) *Ledger {
	return &Ledger{gamma: gamma, nodes: map[int][]codepool.CodeID{}, reports: map[int32]int{}, revokedNow: map[int32]bool{}}
}

// Provision records an acknowledged provision.
func (l *Ledger) Provision(res ProvisionResponse) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, a := range res.Nodes {
		l.ackNode(a.Node, a.Codes)
	}
	l.maxEpoch = max(l.maxEpoch, res.Epoch)
}

// Join records an acknowledged join.
func (l *Ledger) Join(res JoinResponse) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ackNode(res.Node, res.Codes)
	l.maxEpoch = max(l.maxEpoch, res.Epoch)
}

// Revoke records an acknowledged invalid-code report.
func (l *Ledger) Revoke(res RevokeResult) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ackedOps++
	l.reports[res.Code]++
	if res.RevokedNow && l.revokedNow[res.Code] {
		l.violatef("code %d acknowledged RevokedNow again", res.Code)
	}
	l.revokedNow[res.Code] = l.revokedNow[res.Code] || res.RevokedNow
}

func (l *Ledger) ackNode(node int, codes []codepool.CodeID) {
	l.ackedOps++
	if prev, ok := l.nodes[node]; ok {
		l.violatef("node %d acknowledged twice (codes %v, then %v)", node, prev, codes)
		return
	}
	l.nodes[node] = slices.Clone(codes)
}

// Violate records a harness failure that is not a ledger breach, such as
// an operation that errored, so one list explains every failure.
func (l *Ledger) Violate(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.violatef(format, args...)
}

func (l *Ledger) violatef(format string, args ...any) {
	l.violations = append(l.violations, fmt.Sprintf(format, args...))
}

// Violations returns every breach recorded so far; empty means none.
func (l *Ledger) Violations() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.violations)
}

// AckedOps counts the acknowledged nodes and reports.
func (l *Ledger) AckedOps() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ackedOps
}

// Reports counts the acknowledged reports of code.
func (l *Ledger) Reports(code int32) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reports[code]
}

// View is the read side of one authority that Check inspects.
type View struct {
	Prefix  string // prepended to each violation Check records, e.g. the server's URL
	Epoch   int
	Node    func(node int) ([]codepool.CodeID, error) // an error if it holds no such node
	Revoked func(code int32) bool
}

// Check records a violation for each recovery invariant the authority
// behind v breaks:
//
//   - every acknowledged node holds exactly its acknowledged codes;
//   - the epoch is at least the highest acknowledged epoch;
//   - every code acknowledged RevokedNow, or reported more than γ times,
//     is revoked.
//
// Check only reads the authority, so it can run over HTTP or in process.
func (l *Ledger) Check(v View) {
	l.mu.Lock()
	nodes, reports, revokedNow, maxEpoch := maps.Clone(l.nodes), maps.Clone(l.reports), maps.Clone(l.revokedNow), l.maxEpoch
	l.mu.Unlock()

	var found []string
	flag := func(format string, args ...any) { found = append(found, v.Prefix+fmt.Sprintf(format, args...)) }
	if v.Epoch < maxEpoch {
		flag("epoch regressed: %d < acknowledged %d", v.Epoch, maxEpoch)
	}
	for node, want := range nodes {
		got, err := v.Node(node)
		switch {
		case err != nil:
			flag("acknowledged node %d lost: %v", node, err)
		case !slices.Equal(got, want):
			flag("node %d holds codes %v, acknowledged %v", node, got, want)
		}
	}
	for code, n := range reports {
		if (n > l.gamma || revokedNow[code]) && !v.Revoked(code) {
			flag("code %d not revoked after %d acknowledged reports (γ=%d, RevokedNow acknowledged: %v)",
				code, n, l.gamma, revokedNow[code])
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.violations = append(l.violations, found...)
}
