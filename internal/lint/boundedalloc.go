package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// boundedalloc: the internal/wire discipline (PR 3) and the authd request
// codec (PR 4) promise that no byte count read off the wire reaches an
// allocator or reader unchecked — a hostile frame declaring a 4 GiB body
// must die at a Params-derived cap, not in make. The analyzer polices the
// two codec packages: every make([]T, n) with a non-constant size must be
// dominated by a cap comparison on that size (approximated as: some
// variable of the size expression appears in a relational comparison in
// the enclosing function, or the size is derived from len/cap of data
// already held, or it names a cap/limit), and io.ReadAll must read
// through io.LimitReader / http.MaxBytesReader.

// boundedallocPkgs are the decode-path packages under the discipline.
var boundedallocPkgs = []string{
	"repro/internal/wire",
	"repro/internal/authd",
	"repro/internal/transport",
}

// capNameRe matches size expressions that reference an explicit cap.
var capNameRe = regexp.MustCompile(`(?i)max|cap|lim|bound`)

var boundedallocAnalyzer = &Analyzer{
	Name:      "boundedalloc",
	Doc:       "in codec packages, allocation and read sizes must be dominated by a cap comparison",
	AppliesTo: func(pkgPath string) bool { return inScope(pkgPath, boundedallocPkgs) },
	Run:       runBoundedalloc,
}

func runBoundedalloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncAllocs(pass, fd.Body)
		}
	}
}

func checkFuncAllocs(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	// Guard set: the source text of every operand of a relational
	// comparison anywhere in the function. A size whose variable appears
	// here has (approximately) been checked against something.
	guarded := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			switch be.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				guarded[types.ExprString(be.X)] = true
				guarded[types.ExprString(be.Y)] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(call.Args) >= 2 {
				if _, isSlice := info.TypeOf(call.Args[0]).Underlying().(*types.Slice); isSlice {
					for _, size := range call.Args[1:] {
						if !sizeBounded(info, size, guarded) {
							pass.Reportf(size.Pos(),
								"allocation size %s is not dominated by a cap comparison; check it against a Params-derived limit first", types.ExprString(size))
						}
					}
				}
			}
			return true
		}
		if isPkgFunc(info, call.Fun, "io", "ReadAll") && len(call.Args) == 1 {
			if !limitedReader(info, call.Args[0]) {
				pass.Reportf(call.Pos(),
					"io.ReadAll without io.LimitReader/http.MaxBytesReader reads an attacker-controlled length; bound it")
			}
		}
		return true
	})
}

// sizeBounded reports whether a make size expression is acceptably
// bounded: constant, derived from len/cap/min/max of data already in
// memory, naming an explicit cap, or mentioning a variable the function
// compares relationally somewhere.
func sizeBounded(info *types.Info, size ast.Expr, guarded map[string]bool) bool {
	if tv, ok := info.Types[size]; ok && tv.Value != nil {
		return true
	}
	if guarded[types.ExprString(size)] {
		return true
	}
	bounded := false
	ast.Inspect(size, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "len", "cap", "min", "max":
						bounded = true
					}
				}
			}
		case *ast.Ident:
			if guarded[v.Name] || capNameRe.MatchString(v.Name) {
				bounded = true
			}
		case *ast.SelectorExpr:
			if guarded[types.ExprString(v)] || capNameRe.MatchString(v.Sel.Name) {
				bounded = true
				return false
			}
		}
		return true
	})
	return bounded
}

// limitedReader reports whether e is directly a bounded-reader
// construction.
func limitedReader(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	return isPkgFunc(info, call.Fun, "io", "LimitReader") ||
		isPkgFunc(info, call.Fun, "net/http", "MaxBytesReader")
}
