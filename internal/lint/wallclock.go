package lint

import (
	"go/ast"
	"go/types"
)

// wallclock: the chaos matrix's double-run determinism check (PR 2/3,
// docs/robustness.md) is only meaningful if nothing inside the simulated
// world reads the machine clock. Every package that executes under the
// simulator's virtual time — plus authd, whose tests inject cfg.now —
// must not call the wall-clock entry points of package time. Legitimate
// wall-clock sites (service latency telemetry, real HTTP retry sleeps)
// carry //jrsnd:allow wallclock directives explaining why the read never
// feeds deterministic state.

// deterministicPkgs are the import-path roots where wall-clock reads are
// banned. Sub-packages inherit the ban.
var deterministicPkgs = []string{
	"repro/internal/core",
	"repro/internal/sim",
	"repro/internal/dsss",
	"repro/internal/radio",
	"repro/internal/faults",
	"repro/internal/wire",
	"repro/internal/adversary",
	"repro/internal/codepool",
	"repro/internal/authd",
	// The packages that compute the paper's figures: a fixed seed must
	// give byte-identical series.
	"repro/internal/experiment",
	"repro/internal/field",
	"repro/internal/analysis",
	"repro/internal/stats",
	"repro/internal/chips",
	"repro/internal/rs",
	"repro/internal/ibc",
	"repro/internal/baseline",
	// The transport is the real (socket) path, so wall-clock use is
	// legitimate there — but each site must justify itself with an
	// allow directive, keeping the sim/real clock boundary auditable.
	"repro/internal/transport",
}

// wallclockFuncs are the package-level time functions that read or arm
// the machine clock.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"Sleep":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// IsDeterministicPackage reports whether wallclock polices pkgPath.
func IsDeterministicPackage(pkgPath string) bool { return inScope(pkgPath, deterministicPkgs) }

var wallclockAnalyzer = &Analyzer{
	Name:      "wallclock",
	Doc:       "forbid machine-clock reads (time.Now, time.Since, timers) in deterministic packages",
	AppliesTo: IsDeterministicPackage,
	Run: func(pass *Pass) {
		forEachPkgFuncUse(pass, "time", wallclockFuncs, func(id *ast.Ident) {
			pass.Reportf(id.Pos(),
				"time.%s reads the machine clock in a deterministic package; inject a clock (sim virtual time or a now func) instead", id.Name)
		})
	},
}

// forEachPkgFuncUse calls fn for every identifier that resolves to a
// package-level function of pkgPath whose name is in names. Methods
// (receiver present) never match, so rng.Intn survives a ban on
// rand.Intn.
func forEachPkgFuncUse(pass *Pass, pkgPath string, names map[string]bool, fn func(*ast.Ident)) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := pass.Pkg.Info.Uses[id].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
				return true
			}
			if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			if names[obj.Name()] {
				fn(id)
			}
			return true
		})
	}
}
