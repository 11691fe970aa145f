package lint

import (
	"go/ast"
	"go/types"
)

// mutexaliasing: the lock-guarded tables (authd.registry, the rate
// limiter, codepool.Revoker) are only as safe as their encapsulation.
// Two ways that encapsulation silently dies: a lock-holding struct is
// passed or received by value (the copy's mutex guards nothing — go
// vet's copylocks catches copies, this catches the declarations), and an
// exported method hands out a reference to the guarded interior (a map
// or slice field returned as-is escapes the mutex: the caller mutates or
// iterates it unlocked). Interior state must be copied out under the
// lock before it is returned.

var mutexaliasingAnalyzer = &Analyzer{
	Name: "mutexaliasing",
	Doc:  "forbid passing lock-holding structs by value and exported methods returning guarded maps/slices by reference",
	Run:  runMutexaliasing,
}

func runMutexaliasing(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkLockByValue(pass, fd)
			checkInteriorReturn(pass, fd)
		}
	}
}

// checkLockByValue flags receiver and parameter declarations whose
// non-pointer type transitively contains a sync lock.
func checkLockByValue(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	fields := []*ast.Field{}
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		fields = append(fields, fd.Type.Params.List...)
	}
	for _, field := range fields {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if holdsLock(t, map[types.Type]bool{}) {
			pass.Reportf(field.Type.Pos(),
				"%s passes a lock-holding struct by value; the copy's mutex guards nothing — use a pointer", fd.Name.Name)
		}
	}
}

// holdsLock reports whether t (passed by value) would copy a sync
// primitive.
func holdsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "Once", "WaitGroup", "Cond", "Map", "Pool":
				return true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return holdsLock(u.Elem(), seen)
	}
	return false
}

// checkInteriorReturn flags exported methods on lock-holding structs
// that return a map- or slice-typed selector chain rooted at the
// receiver.
func checkInteriorReturn(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	if fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() || len(fd.Recv.List) == 0 {
		return
	}
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return
	}
	recvObj := info.Defs[names[0]]
	if recvObj == nil {
		return
	}
	base := recvObj.Type()
	if ptr, ok := base.Underlying().(*types.Pointer); ok {
		base = ptr.Elem()
	}
	if !holdsLock(base, map[types.Type]bool{}) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if !rootedAtReceiver(info, res, recvObj) {
				continue
			}
			switch info.TypeOf(res).Underlying().(type) {
			case *types.Map, *types.Slice:
				pass.Reportf(res.Pos(),
					"exported %s returns guarded interior state %s by reference; copy it out under the lock", fd.Name.Name, types.ExprString(res))
			}
		}
		return true
	})
}

// rootedAtReceiver reports whether e is a selector/index chain with at
// least one step whose root identifier is the method receiver.
func rootedAtReceiver(info *types.Info, e ast.Expr, recv types.Object) bool {
	steps := 0
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			e, steps = v.X, steps+1
		case *ast.IndexExpr:
			e, steps = v.X, steps+1
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.Ident:
			return steps > 0 && info.Uses[v] == recv
		default:
			return false
		}
	}
}
