package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// spanbalance: the causal-span traces of docs/observability.md are only
// evidence if every Start is eventually answered. An open span in a
// report is supposed to mean "the jammer destroyed this handshake" — a
// span that merely leaked out of scope forges that signal. The invariant:
// a span ID held in a local variable must either reach an End call on
// every return path of its function, or be handed off to a closer that
// outlives the function — stored into protocol state, passed along as an
// argument (e.g. as another span's parent), or captured by a scheduled
// closure. A local span that can leave its function neither ended nor
// handed off is a leak.
//
// Detection is type-driven: a "start" is any call returning
// trace.SpanID whose callee name ends in Start (Tracer.Start and
// wrappers like Network.spanStart); an "end" use is the variable
// appearing as an argument of a callee whose name ends in End. Any other
// move of the value — field store, argument, return, closure capture —
// transfers ownership and exempts the variable.

// instrumentedPkgs are the import-path roots that emit causal spans;
// sub-packages inherit the policing.
var instrumentedPkgs = []string{
	"repro/internal/core",
	"repro/internal/sim",
	"repro/internal/dsss",
	"repro/internal/authd",
}

// IsInstrumentedPackage reports whether spanbalance polices pkgPath.
func IsInstrumentedPackage(pkgPath string) bool { return inScope(pkgPath, instrumentedPkgs) }

var spanbalanceAnalyzer = &Analyzer{
	Name:      "spanbalance",
	Doc:       "every locally-held trace span must reach End on all return paths or be handed off",
	AppliesTo: IsInstrumentedPackage,
	Run:       runSpanbalance,
}

func runSpanbalance(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSpanBalance(pass, fd)
			}
		}
	}
}

// spanVar is one local variable observed to receive a span ID.
type spanVar struct {
	name     string
	startPos token.Pos
	// startStmts are the assignments that (re)open the span.
	startStmts map[*ast.AssignStmt]bool
	// endCalls are the End-suffixed calls that pass the variable.
	endCalls map[*ast.CallExpr]bool
	// escaped marks a handoff: the value left the function's custody, so
	// some longer-lived closer owns the End.
	escaped bool
}

func checkSpanBalance(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	vars := map[types.Object]*spanVar{}

	// Pass 1: find top-level locals assigned from a start call. Spans
	// opened inside a func literal belong to that literal's own dynamic
	// extent (usually a scheduled continuation), not to fd's return paths.
	inspectOutsideFuncLits(fd.Body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isSpanStartCall(info, call) {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		sv := vars[obj]
		if sv == nil {
			sv = &spanVar{
				name:       id.Name,
				startPos:   call.Pos(),
				startStmts: map[*ast.AssignStmt]bool{},
				endCalls:   map[*ast.CallExpr]bool{},
			}
			vars[obj] = sv
		}
		sv.startStmts[as] = true
	})
	if len(vars) == 0 {
		return
	}

	// Pass 2: classify every use of each tracked variable.
	classifySpanUses(fd.Body, info, vars)

	for _, sv := range vars {
		if sv.escaped {
			continue
		}
		if len(sv.endCalls) == 0 {
			pass.Reportf(sv.startPos,
				"span %q is started but never ended and never handed off; End it on every return path or store/pass it to its closer", sv.name)
			continue
		}
		checkSpanPaths(pass, fd, sv)
	}
}

// inspectOutsideFuncLits walks root, skipping func-literal interiors.
func inspectOutsideFuncLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// classifySpanUses records, for each tracked variable, its End uses and
// any escape (handoff) use.
func classifySpanUses(body *ast.BlockStmt, info *types.Info, vars map[types.Object]*spanVar) {
	var stack []ast.Node
	funcLitDepth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncLit); ok {
				funcLitDepth--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if _, ok := n.(*ast.FuncLit); ok {
			funcLitDepth++
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		sv := vars[info.Uses[id]]
		if sv == nil {
			return true
		}
		if funcLitDepth > 0 {
			sv.escaped = true // captured by a closure: the closure closes it
			return true
		}
		classifyOneUse(sv, info, id, parentOf(stack))
		return true
	})
}

// parentOf returns the nearest non-paren ancestor of the node on top of
// the stack.
func parentOf(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

func classifyOneUse(sv *spanVar, info *types.Info, id *ast.Ident, parent ast.Node) {
	switch p := parent.(type) {
	case *ast.CallExpr:
		if strings.HasSuffix(calleeName(info, p), "End") {
			sv.endCalls[p] = true
			return
		}
		// Passed to anything else — including as another span's parent in
		// a Start call — the ID is handed off.
		sv.escaped = true
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == ast.Expr(id) {
				return // reassignment target: not a read
			}
		}
		// On the RHS: stored somewhere. Only an all-blank assignment
		// (`_ = sp`) keeps custody here.
		for _, l := range p.Lhs {
			if lid, ok := l.(*ast.Ident); !ok || lid.Name != "_" {
				sv.escaped = true
				return
			}
		}
	case *ast.BinaryExpr, *ast.CaseClause, *ast.SwitchStmt:
		// Comparisons read the ID without moving it.
	default:
		// Return, field store via composite literal, channel send, &x,
		// index expression, anything unanticipated: treat as a handoff
		// rather than guess.
		sv.escaped = true
	}
}

// spanPath is the abstract state of one control-flow path.
type spanPath struct {
	open       bool // a start has run with no matching end yet
	deferred   bool // a defer holding an End covers every later exit
	terminated bool // the path already returned (or broke out)
}

// checkSpanPaths reports return paths (and the implicit fall-off-the-end
// return) that can leave the span open. The walk is a structural
// approximation of the CFG: branches merge pessimistically (open if open
// on any surviving branch), loops may run zero times, and break/continue
// end the current path.
func checkSpanPaths(pass *Pass, fd *ast.FuncDecl, sv *spanVar) {
	startLine := pass.Pkg.Fset.Position(sv.startPos).Line

	endsHere := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // an End inside a closure runs later, not now
			}
			if call, ok := m.(*ast.CallExpr); ok && sv.endCalls[call] {
				found = true
			}
			return !found
		})
		return found
	}
	simple := func(s ast.Stmt, st spanPath) spanPath {
		if as, ok := s.(*ast.AssignStmt); ok && sv.startStmts[as] {
			st.open = true
			return st
		}
		if _, ok := s.(*ast.DeferStmt); ok {
			if endsHere(s) {
				st.deferred = true
			}
			return st
		}
		if endsHere(s) {
			st.open = false
		}
		return st
	}
	merge := func(a, b spanPath) spanPath {
		switch {
		case a.terminated && b.terminated:
			return spanPath{terminated: true}
		case a.terminated:
			return b
		case b.terminated:
			return a
		}
		return spanPath{open: a.open || b.open, deferred: a.deferred && b.deferred}
	}

	var walk func(stmts []ast.Stmt, st spanPath) spanPath
	walkCases := func(init ast.Stmt, bodies [][]ast.Stmt, hasDefault bool, st spanPath) spanPath {
		if init != nil {
			st = simple(init, st)
		}
		merged := spanPath{terminated: true}
		for _, body := range bodies {
			merged = merge(merged, walk(body, st))
		}
		if !hasDefault {
			merged = merge(merged, st)
		}
		return merged
	}
	walk = func(stmts []ast.Stmt, st spanPath) spanPath {
		for _, s := range stmts {
			if st.terminated {
				break
			}
			switch t := s.(type) {
			case *ast.ReturnStmt:
				if st.open && !st.deferred {
					pass.Reportf(t.Pos(),
						"return leaks span %q (started at line %d) without a matching End", sv.name, startLine)
				}
				st.terminated = true
			case *ast.BranchStmt:
				st.terminated = true
			case *ast.BlockStmt:
				st = walk(t.List, st)
			case *ast.LabeledStmt:
				st = walk([]ast.Stmt{t.Stmt}, st)
			case *ast.IfStmt:
				if t.Init != nil {
					st = simple(t.Init, st)
				}
				thenSt := walk(t.Body.List, st)
				elseSt := st
				switch e := t.Else.(type) {
				case *ast.BlockStmt:
					elseSt = walk(e.List, st)
				case *ast.IfStmt:
					elseSt = walk([]ast.Stmt{e}, st)
				}
				st = merge(thenSt, elseSt)
			case *ast.ForStmt:
				inner := st
				if t.Init != nil {
					inner = simple(t.Init, inner)
				}
				body := walk(t.Body.List, inner)
				st.open = inner.open || (body.open && !body.terminated)
			case *ast.RangeStmt:
				body := walk(t.Body.List, st)
				st.open = st.open || (body.open && !body.terminated)
			case *ast.SwitchStmt:
				var bodies [][]ast.Stmt
				hasDefault := false
				for _, c := range t.Body.List {
					cc := c.(*ast.CaseClause)
					bodies = append(bodies, cc.Body)
					hasDefault = hasDefault || cc.List == nil
				}
				st = walkCases(t.Init, bodies, hasDefault, st)
			case *ast.TypeSwitchStmt:
				var bodies [][]ast.Stmt
				hasDefault := false
				for _, c := range t.Body.List {
					cc := c.(*ast.CaseClause)
					bodies = append(bodies, cc.Body)
					hasDefault = hasDefault || cc.List == nil
				}
				st = walkCases(t.Init, bodies, hasDefault, st)
			case *ast.SelectStmt:
				var bodies [][]ast.Stmt
				for _, c := range t.Body.List {
					bodies = append(bodies, c.(*ast.CommClause).Body)
				}
				st = walkCases(nil, bodies, true, st)
			default:
				st = simple(s, st)
			}
		}
		return st
	}

	final := walk(fd.Body.List, spanPath{})
	if final.open && !final.deferred && !final.terminated {
		pass.Reportf(sv.startPos,
			"span %q can still be open when %s falls off the end; End it on every path or hand it off", sv.name, fd.Name.Name)
	}
}

// isSpanStartCall reports whether call opens a span: its single result is
// trace.SpanID and its callee name ends in Start.
func isSpanStartCall(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil || !isSpanIDType(t) {
		return false
	}
	return strings.HasSuffix(calleeName(info, call), "Start")
}

// isSpanIDType matches the trace package's SpanID named type.
func isSpanIDType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "SpanID" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "/trace")
}

// calleeName resolves the called function's name; "" for conversions,
// indirect calls, and anything else without a static *types.Func callee.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.Name()
	}
	return ""
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
