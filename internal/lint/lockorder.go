package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// lockorder: authd and transport each hold several mutexes (poolMu, the
// registry shard locks, the WAL's syncMu/mu pair, the endpoint mu), and
// a deadlock needs only two call paths that acquire the same pair in
// opposite orders. The analyzer builds a static lock-acquisition graph:
// acquiring B while holding A adds the edge A→B, including acquisitions
// made transitively by callees (through the shared call graph). Any
// cycle — including a self-edge, which is a reentrant double-lock on
// Go's non-reentrant mutexes — is a potential-deadlock finding, with the
// witness edge positions and call chains printed.
//
// Approximations (documented in docs/static-analysis.md):
//   - Lock identity is the declared variable or struct field, so every
//     instance of the same field is one graph node.
//   - Held regions are lexical: a lock is held from its acquire call to
//     the matching Unlock in statement order; a deferred Unlock holds to
//     the end of the function. Early-return unlock paths can therefore
//     under-count held regions (missed edges, never false edges from
//     release placement).
//   - RLock and Lock map to the same node: an RLock self-cycle can still
//     deadlock through a queued writer.

// lockorderPkgs scopes the analyzer to the mutex-heavy layers.
var lockorderPkgs = []string{
	"repro/internal/authd",
	"repro/internal/transport",
}

var lockorderAnalyzer = &Analyzer{
	Name:     "lockorder",
	Doc:      "lock-acquisition order across authd and transport must be acyclic (cycles are potential deadlocks)",
	RunSuite: runLockorder,
}

// lockID names one lock node: a declared mutex variable or field.
type lockID struct {
	// key is stable across packages: pkgpath.name@file:line of the
	// declaration.
	key string
	// label is the short human form used in messages.
	label string
}

// lockAcq records one (possibly transitive) acquisition a function makes.
type lockAcq struct {
	id *lockID
	// chain lists the callee FullNames walked to reach the acquisition;
	// empty for a direct acquire.
	chain []string
}

// lockEdge is one held→acquired observation.
type lockEdge struct {
	from, to *lockID
	// pos is where the inner acquisition (or the call leading to it)
	// happens in the witnessing function.
	pos token.Pos
	// fn is the witnessing function's FullName.
	fn string
	// chain is the callee path for transitive acquisitions.
	chain []string
}

type lockorderState struct {
	pass     *SuitePass
	fset     *token.FileSet
	memo     map[string][]lockAcq
	visiting map[string]bool
	edges    map[[2]string]*lockEdge
	nodes    map[string]*lockID
}

func runLockorder(pass *SuitePass) {
	st := &lockorderState{
		pass:     pass,
		fset:     pass.fset,
		memo:     map[string][]lockAcq{},
		visiting: map[string]bool{},
		edges:    map[[2]string]*lockEdge{},
		nodes:    map[string]*lockID{},
	}
	// Deterministic traversal: scoped functions sorted by key.
	var keys []string
	for key, node := range pass.Graph.Funcs {
		if inScope(node.Pkg.Path, lockorderPkgs) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		st.scanFunction(pass.Graph.Funcs[key])
	}
	st.reportCycles()
}

// lockEvent linearizes one lock-relevant statement in a function body.
type lockEvent struct {
	pos     token.Pos
	kind    int // 0 acquire, 1 release, 2 call
	id      *lockID
	callee  string
	calleeO *types.Func
}

// scanFunction walks one function's body in statement order, tracking
// the lexically held set and adding graph edges for every acquisition
// (direct or via callee) made while something is held.
func (st *lockorderState) scanFunction(node *FuncNode) {
	events := st.lockEvents(node)
	var held []*lockID
	for _, ev := range events {
		switch ev.kind {
		case 0: // acquire
			for _, h := range held {
				st.addEdge(&lockEdge{from: h, to: ev.id, pos: ev.pos, fn: node.Key})
			}
			held = append(held, ev.id)
		case 1: // release
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].key == ev.id.key {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case 2: // call
			if len(held) == 0 {
				continue
			}
			for _, acq := range st.summary(ev.callee) {
				for _, h := range held {
					st.addEdge(&lockEdge{
						from:  h,
						to:    acq.id,
						pos:   ev.pos,
						fn:    node.Key,
						chain: append([]string{ev.callee}, acq.chain...),
					})
				}
			}
		}
	}
}

// lockEvents extracts the ordered acquire/release/call events of a body.
// Unlock calls inside defer statements are dropped: the lock is held to
// the end of the function.
func (st *lockorderState) lockEvents(node *FuncNode) []lockEvent {
	info := node.Pkg.Info
	deferredUnlocks := map[*ast.CallExpr]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if _, release := st.classifyLockCall(info, d.Call); release == 1 {
				deferredUnlocks[d.Call] = true
			}
		}
		return true
	})
	var events []lockEvent
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, kind := st.classifyLockCall(info, call); id != nil {
			if kind == 1 && deferredUnlocks[call] {
				return true
			}
			st.nodes[id.key] = id
			events = append(events, lockEvent{pos: call.Pos(), kind: kind, id: id})
			return true
		}
		if callee, iface := CalleeOf(info, call); callee != nil && !iface {
			if st.pass.Graph.Node(callee) != nil {
				events = append(events, lockEvent{pos: call.Pos(), kind: 2, callee: callee.FullName(), calleeO: callee})
			}
		}
		return true
	})
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// classifyLockCall recognizes sync mutex operations: kind 0 for
// Lock/RLock/TryLock acquisitions, 1 for Unlock/RUnlock releases, and
// resolves the lock variable the call targets. Unresolvable receivers
// (map entries, call results) yield nil.
func (st *lockorderState) classifyLockCall(info *types.Info, call *ast.CallExpr) (*lockID, int) {
	callee, _ := CalleeOf(info, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return nil, 0
	}
	recv := recvNamed(callee)
	if recv != "Mutex" && recv != "RWMutex" {
		return nil, 0
	}
	var kind int
	switch callee.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		kind = 0
	case "Unlock", "RUnlock":
		kind = 1
	default:
		return nil, 0
	}
	obj := receiverObject(info, call)
	v, ok := obj.(*types.Var)
	if !ok {
		return nil, 0
	}
	return st.lockIDForVar(v), kind
}

// lockIDForVar keys a lock by its declaration site, which is stable
// between a source load of the declaring package and the same field seen
// through export data (file and line survive both).
func (st *lockorderState) lockIDForVar(v *types.Var) *lockID {
	pos := st.fset.Position(v.Pos())
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Path()
	}
	base := filepath.Base(pos.Filename)
	return &lockID{
		key:   fmt.Sprintf("%s.%s@%s:%d", pkg, v.Name(), base, pos.Line),
		label: fmt.Sprintf("%s (%s:%d)", v.Name(), base, pos.Line),
	}
}

// summary returns every lock a function acquires anywhere in its static
// call closure, memoized, with the callee chain that reaches each one.
func (st *lockorderState) summary(fnKey string) []lockAcq {
	if acqs, ok := st.memo[fnKey]; ok {
		return acqs
	}
	if st.visiting[fnKey] {
		return nil
	}
	st.visiting[fnKey] = true
	defer delete(st.visiting, fnKey)
	node := st.pass.Graph.Funcs[fnKey]
	if node == nil {
		st.memo[fnKey] = nil
		return nil
	}
	seen := map[string]bool{}
	var acqs []lockAcq
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, kind := st.classifyLockCall(info, call); id != nil && kind == 0 && !seen[id.key] {
			seen[id.key] = true
			st.nodes[id.key] = id
			acqs = append(acqs, lockAcq{id: id})
		}
		return true
	})
	for _, c := range node.Calls {
		if c.Interface {
			continue
		}
		for _, sub := range st.summary(c.Callee) {
			if seen[sub.id.key] {
				continue
			}
			seen[sub.id.key] = true
			acqs = append(acqs, lockAcq{id: sub.id, chain: append([]string{c.Callee}, sub.chain...)})
		}
	}
	st.memo[fnKey] = acqs
	return acqs
}

// addEdge records the first witness for a held→acquired pair.
func (st *lockorderState) addEdge(e *lockEdge) {
	key := [2]string{e.from.key, e.to.key}
	if prev, ok := st.edges[key]; ok {
		// Keep the earliest witness position for determinism.
		if e.pos < prev.pos {
			st.edges[key] = e
		}
		return
	}
	st.edges[key] = e
}

// reportCycles finds strongly connected components of the acquisition
// graph and reports each cyclic one once, anchored at its earliest
// witness, with every in-cycle edge's position and call chain printed.
func (st *lockorderState) reportCycles() {
	adj := map[string][]string{}
	for key := range st.edges {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	sccs := stronglyConnected(adj)
	for _, scc := range sccs {
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		var cycleEdges []*lockEdge
		for key, e := range st.edges {
			if inSCC[key[0]] && inSCC[key[1]] && (len(scc) > 1 || key[0] == key[1]) {
				cycleEdges = append(cycleEdges, e)
			}
		}
		if len(cycleEdges) == 0 {
			continue
		}
		sort.Slice(cycleEdges, func(i, j int) bool { return cycleEdges[i].pos < cycleEdges[j].pos })
		var labels []string
		for _, n := range scc {
			labels = append(labels, st.nodes[n].label)
		}
		var witnesses []string
		for _, e := range cycleEdges {
			p := st.fset.Position(e.pos)
			w := fmt.Sprintf("%s -> %s in %s at %s:%d", e.from.label, e.to.label,
				ShortFuncName(e.fn), filepath.Base(p.Filename), p.Line)
			if len(e.chain) > 0 {
				var parts []string
				for _, c := range e.chain {
					parts = append(parts, ShortFuncName(c))
				}
				w += " (via " + strings.Join(parts, " -> ") + ")"
			}
			witnesses = append(witnesses, w)
		}
		kind := "lock-order cycle"
		if len(scc) == 1 {
			kind = "reentrant double-lock"
		}
		st.pass.Reportf(cycleEdges[0].pos,
			"potential deadlock: %s among {%s}; witness paths: %s",
			kind, strings.Join(labels, ", "), strings.Join(witnesses, "; "))
	}
}

// stronglyConnected returns Tarjan SCCs of size >1, plus singletons with
// a self-edge, sorted for deterministic reporting.
func stronglyConnected(adj map[string][]string) [][]string {
	var nodes []string
	nodeSet := map[string]bool{}
	add := func(n string) {
		if !nodeSet[n] {
			nodeSet[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, tos := range adj {
		add(from)
		for _, to := range tos {
			add(to)
		}
	}
	sort.Strings(nodes)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			selfEdge := false
			for _, t := range adj[v] {
				if t == v {
					selfEdge = true
				}
			}
			if len(scc) > 1 || selfEdge {
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}
