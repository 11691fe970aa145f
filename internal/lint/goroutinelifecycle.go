package lint

import (
	"go/ast"
	"go/types"
)

// goroutinelifecycle: the service layers (the authd server and load
// generator, the transport peer manager, the daemons and harnesses) are
// goroutine-heavy, and a goroutine nobody joins or cancels is a leak that
// -race cannot see: it holds its captures forever and keeps running after
// Shutdown returned. Every `go` statement in a service package must be provably
// one of:
//
//   - joined: the spawned body calls (*sync.WaitGroup).Done and the
//     spawning function calls Add on the same group;
//   - cancellable: the spawned body receives from a channel (a done/stop
//     channel, a select with a receive case, ranging over a channel) or
//     has a context.Context plumbed into it and consults it;
//   - completion-signalled: the spawned body close()s a channel, so some
//     waiter observes termination;
//   - a stdlib serve loop: the body runs (*net/http.Server).Serve (or
//     ListenAndServe), whose documented cancel path is Shutdown/Close.
//
// The search is interprocedural: `go e.sendLoop(p)` is resolved through
// the call graph and sendLoop's body is searched, transitively through
// static callees up to a bounded depth. Anything else is a
// fire-and-forget finding.

// servicePkgs are the goroutine- and mutex-heavy layers the concurrency
// analyzers (goroutinelifecycle, lockorder) police.
var servicePkgs = []string{
	"repro/internal/authd",
	"repro/internal/transport",
	"repro/internal/subproc",
	"repro/cmd/jrsnd-authority",
	"repro/cmd/jrsnd-node",
}

// IsServicePackage reports whether the concurrency analyzers police
// pkgPath. Sub-packages inherit the scope.
func IsServicePackage(pkgPath string) bool { return inScope(pkgPath, servicePkgs) }

var goroutinelifecycleAnalyzer = &Analyzer{
	Name:     "goroutinelifecycle",
	Doc:      "every go statement in service packages must be joined (WaitGroup), cancellable (channel/context), or completion-signalled",
	RunSuite: runGoroutinelifecycle,
}

// lifecycleSignals is what a spawned body (and its static callees) can
// exhibit to prove the goroutine terminates observably.
type lifecycleSignals struct {
	wgDone     bool         // calls (*sync.WaitGroup).Done
	wgDoneObj  types.Object // the WaitGroup variable Done was called on, when resolvable
	chanRecv   bool         // receives from a channel (unary <-, range, select case)
	ctxUse     bool         // references a context.Context value
	chanClose  bool         // close()s a channel
	serveLoop  bool         // runs (*net/http.Server).Serve / ListenAndServe
	searchedFn map[string]bool
}

// lifecycleDepth bounds the transitive body search from a go statement.
const lifecycleDepth = 3

func runGoroutinelifecycle(pass *SuitePass) {
	for _, pkg := range pass.Pkgs {
		if !IsServicePackage(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(pass, pkg, f, g)
				return true
			})
		}
	}
}

func checkGoStmt(pass *SuitePass, pkg *Package, file *ast.File, g *ast.GoStmt) {
	sig := &lifecycleSignals{searchedFn: map[string]bool{}}

	// Arguments evaluated at spawn time can plumb a context in
	// (go worker(ctx, …)); so can the spawned function's own body.
	for _, arg := range g.Call.Args {
		scanLifecycleExpr(pkg.Info, arg, sig)
	}

	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		scanLifecycleBody(pass.Graph, pkg.Info, fun.Body, sig, lifecycleDepth)
	default:
		callee, _ := CalleeOf(pkg.Info, g.Call)
		if node := pass.Graph.Node(callee); node != nil {
			sig.searchedFn[node.Key] = true
			scanLifecycleBody(pass.Graph, node.Pkg.Info, node.Decl.Body, sig, lifecycleDepth)
		}
	}

	switch {
	case sig.wgDone:
		if !spawnerAdds(pkg.Info, file, g, sig.wgDoneObj) {
			pass.Reportf(g.Pos(),
				"goroutine calls WaitGroup.Done but the spawning function never calls Add on the group; pair Add before the go statement with Done in the body")
		}
	case sig.chanRecv, sig.ctxUse, sig.chanClose, sig.serveLoop:
		// Cancellable, signalled, or a stdlib serve loop: accounted for.
	default:
		pass.Reportf(g.Pos(),
			"fire-and-forget goroutine: the spawned body is neither joined (WaitGroup.Add/Done), cancellable (done channel, select receive, or context), nor completion-signalled (close); give it a join or cancel path")
	}
}

// scanLifecycleBody searches one function body (including nested
// FuncLits) for lifecycle signals, following static calls to loaded
// functions up to depth.
func scanLifecycleBody(graph *CallGraph, info *types.Info, body *ast.BlockStmt, sig *lifecycleSignals, depth int) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				sig.chanRecv = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					sig.chanRecv = true
				}
			}
		case *ast.Ident:
			if isContextValue(info, v) {
				sig.ctxUse = true
			}
		case *ast.CallExpr:
			scanLifecycleCall(graph, info, v, sig, depth)
		}
		return true
	})
}

// scanLifecycleCall classifies one call inside a spawned body.
func scanLifecycleCall(graph *CallGraph, info *types.Info, call *ast.CallExpr, sig *lifecycleSignals, depth int) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "close" {
				sig.chanClose = true
			}
			return
		}
	}
	callee, _ := CalleeOf(info, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	recv := recvNamed(callee)
	switch {
	case callee.Pkg().Path() == "sync" && recv == "WaitGroup" && callee.Name() == "Done":
		sig.wgDone = true
		if sig.wgDoneObj == nil {
			sig.wgDoneObj = receiverObject(info, call)
		}
	case callee.Pkg().Path() == "net/http" && recv == "Server" &&
		(callee.Name() == "Serve" || callee.Name() == "ListenAndServe" || callee.Name() == "ListenAndServeTLS"):
		sig.serveLoop = true
	default:
		if depth <= 0 {
			return
		}
		node := graph.Node(callee)
		if node == nil || sig.searchedFn[node.Key] {
			return
		}
		sig.searchedFn[node.Key] = true
		scanLifecycleBody(graph, node.Pkg.Info, node.Decl.Body, sig, depth-1)
	}
}

// scanLifecycleExpr looks for context values in spawn-time expressions.
func scanLifecycleExpr(info *types.Info, e ast.Expr, sig *lifecycleSignals) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && isContextValue(info, id) {
			sig.ctxUse = true
		}
		return true
	})
}

// isContextValue reports whether id is a use of a context.Context-typed
// value.
func isContextValue(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		return false
	}
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Pkg() != nil && tn.Pkg().Path() == "context" && tn.Name() == "Context"
}

// recvNamed returns the named type of a method's receiver ("" for
// package functions).
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// receiverObject resolves the variable a method call's receiver
// expression names (w in w.Done()), nil when it is not a simple
// identifier or selector chain.
func receiverObject(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok {
			return s.Obj()
		}
		return info.Uses[x.Sel]
	}
	return nil
}

// spawnerAdds reports whether the function enclosing the go statement
// calls Add on a WaitGroup — the same group as Done when both resolve.
// The outermost enclosing declaration is searched, so an Add in the
// function that spawned an intermediate closure still counts.
func spawnerAdds(info *types.Info, file *ast.File, g *ast.GoStmt, doneObj types.Object) bool {
	body := enclosingBody(file, g)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, _ := CalleeOf(info, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" ||
			recvNamed(callee) != "WaitGroup" || callee.Name() != "Add" {
			return true
		}
		if doneObj != nil {
			if obj := receiverObject(info, call); obj != nil && obj != doneObj {
				return true // Add on a different group
			}
		}
		found = true
		return false
	})
	return found
}

// enclosingBody returns the body of the outermost FuncDecl containing
// the go statement, found by position containment in the file's AST.
func enclosingBody(file *ast.File, g *ast.GoStmt) *ast.BlockStmt {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Body.Pos() <= g.Pos() && g.End() <= fd.Body.End() {
			return fd.Body
		}
	}
	return nil
}
