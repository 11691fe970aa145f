// Package codepool implements the random spread-code pre-distribution
// scheme of §V-A: before deployment the authority generates a secret pool
// of s = w·m spread codes and, over m rounds, randomly partitions the nodes
// into w subsets of cardinality l, assigning one fresh code per subset.
// After m rounds every node holds exactly m codes and every code is shared
// by exactly l nodes (up to the virtual-node padding when l ∤ n).
//
// The package also models node-compromise attacks (which codes an
// adversary learns by compromising q nodes) and the local revocation
// counters of §V-D.
package codepool

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/chips"
)

// CodeID identifies a spread code in the authority's pool ℂ = {C_1 … C_s}.
type CodeID int32

// Pool is the authority's view of the pre-distribution: which node holds
// which codes. Only the authority has the full map; a deployed node sees
// just its own code set.
type Pool struct {
	n       int // real nodes
	m       int // codes per node
	l       int // target sharers per code
	w       int // subsets per round
	virtual int // padding nodes (l' in the paper)
	assign  [][]CodeID
	holders [][]int32  // real holders per code, sorted
	vacant  [][]CodeID // code sets of unclaimed virtual nodes (§V-A join)
	seed    []byte     // secret used to materialize chip sequences

	expansions int // batch expansions run by Join (§V-A further rounds)

	uniformPool int // nonzero for NewUniform pools: the pool size s
}

// Config configures pre-distribution.
type Config struct {
	// N is the number of nodes, M the number of codes per node, L the
	// number of nodes sharing each code.
	N, M, L int
	// Rand drives the random partitions; required for reproducibility.
	Rand *rand.Rand
	// Seed is the secret that materializes CodeIDs into chip sequences.
	// Optional; defaults to a seed drawn from Rand.
	Seed []byte
}

// New runs the m-round distribution process.
func New(cfg Config) (*Pool, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("codepool: need at least 2 nodes, got %d", cfg.N)
	}
	if cfg.M < 1 {
		return nil, fmt.Errorf("codepool: need at least 1 code per node, got %d", cfg.M)
	}
	if cfg.L < 2 || cfg.L > cfg.N {
		return nil, fmt.Errorf("codepool: sharers per code l=%d must be in [2, n=%d]", cfg.L, cfg.N)
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("codepool: Config.Rand must be set")
	}
	w := (cfg.N + cfg.L - 1) / cfg.L
	padded := w * cfg.L
	p := &Pool{
		n:       cfg.N,
		m:       cfg.M,
		l:       cfg.L,
		w:       w,
		virtual: padded - cfg.N,
		assign:  make([][]CodeID, cfg.N),
		holders: make([][]int32, w*cfg.M),
		seed:    cfg.Seed,
	}
	if p.seed == nil {
		p.seed = make([]byte, 32)
		for i := 0; i < len(p.seed); i += 8 {
			binary.BigEndian.PutUint64(p.seed[i:], cfg.Rand.Uint64())
		}
	}
	codes := make([]CodeID, cfg.N*cfg.M)
	for i := range p.assign {
		p.assign[i] = codes[i*cfg.M : i*cfg.M : (i+1)*cfg.M]
	}
	ids := make([]int, padded) // real node indices plus virtual ids >= n
	for i := range ids {
		ids[i] = i
	}
	virtualAssign := make([][]CodeID, padded-cfg.N)
	for round := 0; round < cfg.M; round++ {
		cfg.Rand.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for subset := 0; subset < w; subset++ {
			code := CodeID(round*w + subset)
			for k := 0; k < cfg.L; k++ {
				node := ids[subset*cfg.L+k]
				if node < cfg.N {
					p.assign[node] = append(p.assign[node], code)
				} else {
					// Virtual-node code sets are kept for §V-A late join.
					virtualAssign[node-cfg.N] = append(virtualAssign[node-cfg.N], code)
				}
			}
		}
	}
	p.vacant = virtualAssign
	// Every assign[i] is sorted: it gains one code per round, and round
	// r's codes are r·w … r·w+w−1. Filling holders in node order leaves
	// each list sorted too. A code has at most l real holders here; each
	// window has room for l more, so a Join adds its holder in place.
	held := make([]int32, len(p.holders)*2*cfg.L)
	for c := range p.holders {
		p.holders[c] = held[2*c*cfg.L : 2*c*cfg.L : 2*(c+1)*cfg.L]
	}
	for node, cs := range p.assign {
		for _, c := range cs {
			p.holders[c] = append(p.holders[c], int32(node))
		}
	}
	return p, nil
}

// N returns the number of nodes, M the codes per node, L the sharing
// parameter, and S the pool size.
func (p *Pool) N() int { return p.n }

// M returns the number of codes assigned to each node.
func (p *Pool) M() int { return p.m }

// L returns the maximum number of nodes sharing a code.
func (p *Pool) L() int { return p.l }

// S returns the pool size s (w·m for the structured scheme).
func (p *Pool) S() int {
	if p.uniformPool > 0 {
		return p.uniformPool
	}
	return p.w * p.m
}

// Codes returns node i's code set ℂ_i (a copy).
func (p *Pool) Codes(node int) []CodeID {
	out := make([]CodeID, len(p.assign[node]))
	copy(out, p.assign[node])
	return out
}

// Holders returns the sorted node indices sharing code c (a copy).
func (p *Pool) Holders(c CodeID) []int {
	out := make([]int, len(p.holders[c]))
	for i, v := range p.holders[c] {
		out[i] = int(v)
	}
	return out
}

// Shared returns the codes shared by nodes a and b, ℂ_a ∩ ℂ_b, as a new
// slice.
func (p *Pool) Shared(a, b int) []CodeID {
	return p.AppendShared(nil, a, b)
}

// AppendShared appends ℂ_a ∩ ℂ_b to dst in ascending order and returns
// the extended slice. In the structured scheme every node — pre-deployed,
// joined into a vacant slot, or joined after an expansion — holds exactly
// one code per round at index r, so the intersection is a per-round
// equality test. NewUniform pools have no rounds and take a linear merge
// of the two sorted lists.
func (p *Pool) AppendShared(dst []CodeID, a, b int) []CodeID {
	ca, cb := p.assign[a], p.assign[b]
	if p.uniformPool == 0 {
		for r, c := range ca {
			if c == cb[r] {
				dst = append(dst, c)
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(ca) && j < len(cb) {
		switch {
		case ca[i] < cb[j]:
			i++
		case ca[i] > cb[j]:
			j++
		default:
			dst = append(dst, ca[i])
			i++
			j++
		}
	}
	return dst
}

// Sequence materializes code c as its N-chip pseudorandom sequence. Only
// the authority (and the nodes the code was issued to) can do this, since
// it requires the pool seed.
func (p *Pool) Sequence(c CodeID, chipLen int) chips.Sequence {
	var buf [12]byte
	copy(buf[:], "code")
	binary.BigEndian.PutUint32(buf[4:8], uint32(c))
	seed := append(append([]byte(nil), p.seed...), buf[:8]...)
	return chips.Derive(seed, chipLen)
}

// Compromise returns the set of codes an adversary learns by compromising
// the given nodes (the union of their code sets).
func (p *Pool) Compromise(nodes []int) *CodeSet {
	cs := NewCodeSet(p.S())
	for _, node := range nodes {
		for _, c := range p.assign[node] {
			cs.Add(c)
		}
	}
	return cs
}

// CompromiseRandom compromises q distinct random nodes and returns both the
// node indices and the learned code set.
func (p *Pool) CompromiseRandom(rng *rand.Rand, q int) ([]int, *CodeSet, error) {
	if q < 0 || q > p.n {
		return nil, nil, fmt.Errorf("codepool: cannot compromise %d of %d nodes", q, p.n)
	}
	perm := rng.Perm(p.n)[:q]
	return perm, p.Compromise(perm), nil
}

// NewUniform builds a pool with the *unstructured* random pre-distribution
// of the sensor-network literature (the paper's ref [11]): each node
// independently draws M distinct codes uniformly from a pool of PoolSize
// codes. Unlike the paper's partition scheme there is no cap on how many
// nodes share a code — the number of holders is Binomial(n, m/s) with an
// unbounded tail, which is exactly the "fine control of the damage from
// compromised spread codes" the paper's scheme adds. Exposed so the
// ext-predistribution experiment can quantify the difference.
func NewUniform(cfg Config, poolSize int) (*Pool, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("codepool: need at least 2 nodes, got %d", cfg.N)
	}
	if cfg.M < 1 || cfg.M > poolSize {
		return nil, fmt.Errorf("codepool: m=%d must be in [1, poolSize=%d]", cfg.M, poolSize)
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("codepool: Config.Rand must be set")
	}
	p := &Pool{
		n: cfg.N,
		m: cfg.M,
		// l is a target in the structured scheme; for the uniform scheme
		// record the binomial mean n·m/s as the comparable figure.
		l:       int(float64(cfg.N) * float64(cfg.M) / float64(poolSize)),
		w:       0,
		assign:  make([][]CodeID, cfg.N),
		holders: make([][]int32, poolSize),
		seed:    cfg.Seed,
	}
	if p.seed == nil {
		p.seed = make([]byte, 32)
		for i := 0; i < len(p.seed); i += 8 {
			binary.BigEndian.PutUint64(p.seed[i:], cfg.Rand.Uint64())
		}
	}
	p.uniformPool = poolSize
	for node := 0; node < cfg.N; node++ {
		perm := cfg.Rand.Perm(poolSize)[:cfg.M]
		codes := make([]CodeID, cfg.M)
		for i, c := range perm {
			codes[i] = CodeID(c)
			p.holders[c] = append(p.holders[c], int32(node))
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		p.assign[node] = codes
	}
	for _, h := range p.holders {
		sort.Slice(h, func(i, j int) bool { return h[i] < h[j] })
	}
	return p, nil
}

// MaxHolders returns the largest number of nodes sharing any single code —
// exactly l for the structured scheme, a binomial tail for the uniform
// one.
func (p *Pool) MaxHolders() int {
	best := 0
	for _, h := range p.holders {
		if len(h) > best {
			best = len(h)
		}
	}
	return best
}

// HolderQuantile returns the q-quantile of the per-code holder counts.
func (p *Pool) HolderQuantile(q float64) int {
	counts := make([]int, len(p.holders))
	for i, h := range p.holders {
		counts[i] = len(h)
	}
	sort.Ints(counts)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q * float64(len(counts)-1))
	return counts[idx]
}

// CodeSet is a dense bitset over CodeIDs.
type CodeSet struct {
	bits  []uint64
	count int
}

// NewCodeSet creates an empty set able to hold ids in [0, size).
func NewCodeSet(size int) *CodeSet {
	return &CodeSet{bits: make([]uint64, (size+63)/64)}
}

// Add inserts c; duplicates are ignored.
func (s *CodeSet) Add(c CodeID) {
	w, b := int(c)/64, uint(c)%64
	if s.bits[w]&(1<<b) == 0 {
		s.bits[w] |= 1 << b
		s.count++
	}
}

// Remove deletes c if present.
func (s *CodeSet) Remove(c CodeID) {
	w, b := int(c)/64, uint(c)%64
	if s.bits[w]&(1<<b) != 0 {
		s.bits[w] &^= 1 << b
		s.count--
	}
}

// Contains reports membership. Ids outside [0, size) are never members.
func (s *CodeSet) Contains(c CodeID) bool {
	if s == nil || c < 0 {
		return false
	}
	w, b := int(c)/64, uint(c)%64
	if w >= len(s.bits) {
		return false
	}
	return s.bits[w]&(1<<b) != 0
}

// Len returns the cardinality.
func (s *CodeSet) Len() int {
	if s == nil {
		return 0
	}
	return s.count
}

// Rank returns c's position in the sorted enumeration of the set (the
// number of members strictly below c), or -1 when c is not a member. A
// sweep-style adversary uses it to rotate a fixed-size target window
// across its compromised codes without materializing the list.
func (s *CodeSet) Rank(c CodeID) int {
	if !s.Contains(c) {
		return -1
	}
	w, b := int(c)/64, uint(c)%64
	rank := 0
	for i := 0; i < w; i++ {
		rank += bits.OnesCount64(s.bits[i])
	}
	rank += bits.OnesCount64(s.bits[w] & (1<<b - 1))
	return rank
}
