package codepool

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustPool(t *testing.T, n, m, l int, seed int64) *Pool {
	t.Helper()
	p, err := New(Config{N: n, M: m, L: l, Rand: rand.New(rand.NewSource(seed))})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []Config{
		{N: 1, M: 5, L: 2, Rand: rng},
		{N: 10, M: 0, L: 2, Rand: rng},
		{N: 10, M: 5, L: 1, Rand: rng},
		{N: 10, M: 5, L: 11, Rand: rng},
		{N: 10, M: 5, L: 2, Rand: nil},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestExactAssignmentWhenLDividesN(t *testing.T) {
	const n, m, l = 40, 10, 8
	p := mustPool(t, n, m, l, 2)
	if p.S() != (n/l)*m {
		t.Fatalf("S = %d, want %d", p.S(), (n/l)*m)
	}
	for node := 0; node < n; node++ {
		codes := p.Codes(node)
		if len(codes) != m {
			t.Fatalf("node %d has %d codes, want %d", node, len(codes), m)
		}
		seen := map[CodeID]bool{}
		for _, c := range codes {
			if seen[c] {
				t.Fatalf("node %d holds code %d twice", node, c)
			}
			seen[c] = true
		}
	}
	for c := 0; c < p.S(); c++ {
		if holders := p.Holders(CodeID(c)); len(holders) != l {
			t.Fatalf("code %d shared by %d nodes, want exactly %d", c, len(holders), l)
		}
	}
}

func TestVirtualNodePadding(t *testing.T) {
	// n = 37, l = 8 → w = 5, 3 virtual nodes; every code shared by <= l.
	const n, m, l = 37, 6, 8
	p := mustPool(t, n, m, l, 3)
	if p.S() != 5*m {
		t.Fatalf("S = %d, want %d", p.S(), 5*m)
	}
	total := 0
	for c := 0; c < p.S(); c++ {
		h := len(p.Holders(CodeID(c)))
		if h > l {
			t.Fatalf("code %d shared by %d > l=%d nodes", c, h, l)
		}
		total += h
	}
	if total != n*m {
		t.Fatalf("total holder slots = %d, want n·m = %d", total, n*m)
	}
	for node := 0; node < n; node++ {
		if got := len(p.Codes(node)); got != m {
			t.Fatalf("node %d has %d codes, want %d", node, got, m)
		}
	}
}

func TestHoldersAndCodesConsistent(t *testing.T) {
	p := mustPool(t, 50, 8, 10, 4)
	for c := 0; c < p.S(); c++ {
		for _, node := range p.Holders(CodeID(c)) {
			found := false
			for _, cc := range p.Codes(node) {
				if cc == CodeID(c) {
					found = true
				}
			}
			if !found {
				t.Fatalf("holders says node %d has code %d but Codes disagrees", node, c)
			}
		}
	}
}

// Shared and AppendShared equal a brute-force ℂ_a ∩ ℂ_b on every pool
// shape: structured, structured after Join has run a batch expansion, and
// uniform. AppendShared must keep what dst already holds.
func TestSharedMatchesBruteForce(t *testing.T) {
	joined := mustPool(t, 37, 6, 8, 31) // 3 vacant slots, w = 5
	for joined.Expansions() < 2 {
		if _, err := joined.Join(rand.New(rand.NewSource(int64(joined.N())))); err != nil {
			t.Fatal(err)
		}
	}
	uniform, err := NewUniform(Config{N: 60, M: 12, Rand: rand.New(rand.NewSource(5))}, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *Pool
	}{
		{"structured", mustPool(t, 60, 12, 10, 5)},
		{"joined", joined},
		{"uniform", uniform},
	} {
		p := tc.p
		prefix := []CodeID{-1, -2}
		for a := 0; a < p.N(); a++ {
			for b := 0; b < p.N(); b++ {
				bcodes := map[CodeID]bool{}
				for _, c := range p.Codes(b) {
					bcodes[c] = true
				}
				var want []CodeID
				for _, c := range p.Codes(a) {
					if bcodes[c] {
						want = append(want, c)
					}
				}
				if got := p.Shared(a, b); !slices.Equal(got, want) {
					t.Fatalf("%s: Shared(%d,%d) = %v, want %v", tc.name, a, b, got, want)
				}
				got := p.AppendShared(append(make([]CodeID, 0, 16), prefix...), a, b)
				if !slices.Equal(got, append(slices.Clone(prefix), want...)) {
					t.Fatalf("%s: AppendShared(%v, %d, %d) = %v, want %v after the prefix", tc.name, prefix, a, b, got, want)
				}
			}
		}
	}
}

func TestSharedCountMatchesEq1(t *testing.T) {
	// Eq. (1): Pr[x] = C(m,x)·((l-1)/(n-1))^x·((n-l)/(n-1))^(m-x).
	// Check the Monte-Carlo mean x̄ against m(l-1)/(n-1).
	const n, m, l = 200, 20, 10
	var sum float64
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		p := mustPool(t, n, m, l, int64(100+trial))
		pairs := 0
		shared := 0
		for a := 0; a < 40; a++ {
			for b := a + 1; b < 40; b++ {
				shared += len(p.Shared(a, b))
				pairs++
			}
		}
		sum += float64(shared) / float64(pairs)
	}
	got := sum / trials
	want := float64(m) * float64(l-1) / float64(n-1)
	if math.Abs(got-want) > 0.12*want {
		t.Fatalf("mean shared codes = %v, want ≈ %v (Eq. 1 mean)", got, want)
	}
}

func TestSharedCountDistributionMatchesEq1ChiSquare(t *testing.T) {
	// Goodness of fit: the empirical distribution of shared-code counts
	// across pairs must match the Binomial(m, (l−1)/(n−1)) of Eq. 1, not
	// just its mean. Pool assignments across rounds are independent, so a
	// chi-square over the low-count buckets applies.
	const n, m, l = 300, 15, 10
	counts := map[int]int{}
	pairs := 0
	for trial := 0; trial < 20; trial++ {
		p := mustPool(t, n, m, l, int64(500+trial))
		for a := 0; a < 30; a++ {
			for b := a + 1; b < 30; b++ {
				counts[len(p.Shared(a, b))]++
				pairs++
			}
		}
	}
	pr := float64(l-1) / float64(n-1)
	// Buckets 0,1,2 and 3+ keep expected counts comfortably above 5.
	expected := make([]float64, 4)
	probs := make([]float64, 4)
	rem := 1.0
	for x := 0; x < 3; x++ {
		probs[x] = binomPMF(m, x, pr)
		rem -= probs[x]
	}
	probs[3] = rem
	chi2 := 0.0
	for x := 0; x < 4; x++ {
		expected[x] = probs[x] * float64(pairs)
		observed := 0
		if x < 3 {
			observed = counts[x]
		} else {
			for k, v := range counts {
				if k >= 3 {
					observed += v
				}
			}
		}
		d := float64(observed) - expected[x]
		chi2 += d * d / expected[x]
	}
	// 3 degrees of freedom; the 0.999 critical value is 16.27. The pairs
	// within a trial are weakly dependent (shared pool), so allow margin.
	if chi2 > 25 {
		t.Fatalf("chi-square %.2f too large; distribution diverges from Eq. 1", chi2)
	}
}

// binomPMF is a small local binomial PMF (the analysis package owns the
// production version; duplicating 6 lines avoids an import cycle risk).
func binomPMF(n, k int, p float64) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
}

func TestSequenceDeterministicPerCode(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seed := []byte("pool-secret")
	p1, err := New(Config{N: 20, M: 4, L: 5, Rand: rng, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(Config{N: 20, M: 4, L: 5, Rand: rand.New(rand.NewSource(7)), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Sequence(3, 512).Equal(p2.Sequence(3, 512)) {
		t.Fatal("same seed+id produced different sequences")
	}
	if p1.Sequence(3, 512).Equal(p1.Sequence(4, 512)) {
		t.Fatal("different ids produced identical sequences")
	}
	if p1.Sequence(3, 512).Len() != 512 {
		t.Fatal("wrong sequence length")
	}
}

func TestCompromise(t *testing.T) {
	p := mustPool(t, 100, 10, 10, 8)
	nodes := []int{3, 7, 11}
	cs := p.Compromise(nodes)
	want := map[CodeID]bool{}
	for _, node := range nodes {
		for _, c := range p.Codes(node) {
			want[c] = true
		}
	}
	if cs.Len() != len(want) {
		t.Fatalf("compromised %d codes, want %d", cs.Len(), len(want))
	}
	for c := range want {
		if !cs.Contains(c) {
			t.Fatalf("code %d missing from compromised set", c)
		}
	}
}

func TestCompromiseRandomMatchesEq2(t *testing.T) {
	// Eq. (2): α = 1 − C(n−l, q)/C(n, q). Expected compromised codes s·α.
	const n, m, l, q = 400, 10, 20, 20
	alpha := 1.0
	for i := 0; i < q; i++ {
		alpha *= float64(n-l-i) / float64(n-i)
	}
	alpha = 1 - alpha
	var sum float64
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		p := mustPool(t, n, m, l, int64(trial))
		_, cs, err := p.CompromiseRandom(rand.New(rand.NewSource(int64(1000+trial))), q)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(cs.Len())
	}
	got := sum / trials
	want := float64((n/l)*m) * alpha
	if math.Abs(got-want) > 0.08*want {
		t.Fatalf("mean compromised codes = %v, want ≈ s·α = %v", got, want)
	}
}

func TestCompromiseRandomValidation(t *testing.T) {
	p := mustPool(t, 20, 4, 5, 9)
	rng := rand.New(rand.NewSource(1))
	if _, _, err := p.CompromiseRandom(rng, -1); err == nil {
		t.Fatal("accepted negative q")
	}
	if _, _, err := p.CompromiseRandom(rng, 21); err == nil {
		t.Fatal("accepted q > n")
	}
	if _, cs, err := p.CompromiseRandom(rng, 0); err != nil || cs.Len() != 0 {
		t.Fatalf("q=0: err=%v len=%d, want empty", err, cs.Len())
	}
}

func TestCodeSet(t *testing.T) {
	s := NewCodeSet(100)
	if s.Contains(5) || s.Len() != 0 {
		t.Fatal("fresh set not empty")
	}
	s.Add(5)
	s.Add(5)
	s.Add(99)
	if !s.Contains(5) || !s.Contains(99) || s.Len() != 2 {
		t.Fatalf("set state wrong after adds: len=%d", s.Len())
	}
	s.Remove(5)
	s.Remove(5)
	if s.Contains(5) || s.Len() != 1 {
		t.Fatal("remove failed")
	}
	var nilSet *CodeSet
	if nilSet.Contains(3) || nilSet.Len() != 0 {
		t.Fatal("nil set should behave as empty")
	}
}

func TestRevoker(t *testing.T) {
	if _, err := NewRevoker(0); err == nil {
		t.Fatal("accepted γ=0")
	}
	r, err := NewRevoker(3)
	if err != nil {
		t.Fatal(err)
	}
	const code = CodeID(7)
	for i := 0; i < 3; i++ {
		if r.ReportInvalid(code) {
			t.Fatalf("revoked after %d reports, threshold is 3", i+1)
		}
	}
	if r.Revoked(code) {
		t.Fatal("revoked at exactly γ reports; must exceed γ")
	}
	if !r.ReportInvalid(code) {
		t.Fatal("report γ+1 did not revoke")
	}
	if !r.Revoked(code) || r.RevokedCodes() != 1 {
		t.Fatal("revocation state wrong")
	}
	// Further reports on a revoked code are no-ops.
	if r.ReportInvalid(code) {
		t.Fatal("revoked code revoked again")
	}
	if r.Count(code) != 4 {
		t.Fatalf("Count = %d, want 4", r.Count(code))
	}
}

// Property: for arbitrary valid (n, m, l), every node gets exactly m
// distinct codes and no code exceeds l sharers.
func TestPropertyDistributionInvariants(t *testing.T) {
	f := func(seed int64, nRaw, mRaw, lRaw uint8) bool {
		n := 4 + int(nRaw)%60
		m := 1 + int(mRaw)%12
		l := 2 + int(lRaw)%8
		if l > n {
			l = n
		}
		p, err := New(Config{N: n, M: m, L: l, Rand: rand.New(rand.NewSource(seed))})
		if err != nil {
			return false
		}
		for node := 0; node < n; node++ {
			codes := p.Codes(node)
			if len(codes) != m {
				return false
			}
			seen := map[CodeID]bool{}
			for _, c := range codes {
				if seen[c] {
					return false
				}
				seen[c] = true
			}
		}
		for c := 0; c < p.S(); c++ {
			if len(p.Holders(CodeID(c))) > l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
