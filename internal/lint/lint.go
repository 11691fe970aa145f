package lint

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// jrsnd-lint machine-enforces the repo's prose invariants: simulator
// determinism (no wall clocks or global randomness in the protocol
// engine), the bounded-decode discipline of internal/wire, constant-time
// handling of authentication tags, and — since the suite grew an
// interprocedural call-graph substrate — goroutine lifecycle hygiene,
// lock-acquisition ordering, and allocation-free hot paths. Each
// invariant is one Analyzer; a finding is either fixed or suppressed in
// place with a reasoned //jrsnd:allow directive. See
// docs/static-analysis.md.

// Diagnostic is one finding, anchored to a file position.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	// Reason carries the directive text for suppressed diagnostics.
	Reason string `json:"reason,omitempty"`
}

// Pass is one per-package analyzer's view of one package.
type Pass struct {
	Pkg   *Package
	check string
	out   *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		Check:   p.check,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// SuitePass is an interprocedural analyzer's view of the whole load: all
// packages at once plus the shared call graph.
type SuitePass struct {
	Pkgs  []*Package
	Graph *CallGraph
	fset  *token.FileSet
	check string
	out   *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *SuitePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.fset.Position(pos)
	*p.out = append(*p.out, Diagnostic{
		Check:   p.check,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named invariant check. Exactly one of Run (lexical,
// per package) or RunSuite (interprocedural, whole package set) is set.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo scopes a per-package check by import path; nil means
	// every package. Suite analyzers scope themselves internally.
	AppliesTo func(pkgPath string) bool
	Run       func(*Pass)
	RunSuite  func(*SuitePass)
}

// inScope reports whether pkgPath is one of roots or a sub-package of
// one; it is how the scoped analyzers pick their packages.
func inScope(pkgPath string, roots []string) bool {
	for _, root := range roots {
		if pkgPath == root || strings.HasPrefix(pkgPath, root+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		wallclockAnalyzer,
		globalrandAnalyzer,
		cryptocompareAnalyzer,
		boundedallocAnalyzer,
		mutexaliasingAnalyzer,
		spanbalanceAnalyzer,
		goroutinelifecycleAnalyzer,
		lockorderAnalyzer,
		hotpathallocAnalyzer,
	}
}

// KnownChecks returns every valid check name, including the directive
// meta-check, for directive validation and -checks parsing.
func KnownChecks() map[string]bool {
	known := map[string]bool{directiveCheck: true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	return known
}

// Result is one suite run over a package set.
type Result struct {
	Packages int `json:"packages"`
	// Findings are active diagnostics: any entry fails the gate.
	Findings []Diagnostic `json:"findings"`
	// Suppressed are diagnostics matched by a //jrsnd:allow directive.
	Suppressed []Diagnostic `json:"suppressed"`
}

// Run executes the given analyzers over the packages, applies
// suppression directives, and validates the directives themselves.
// Per-package analyzers fan out over a bounded worker pool; the finding
// order is deterministic regardless of scheduling (sorted by position).
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	res := Result{Packages: len(pkgs)}
	running := map[string]bool{}
	var perPkg, suite []*Analyzer
	for _, a := range analyzers {
		running[a.Name] = true
		if a.RunSuite != nil {
			suite = append(suite, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}

	// Per-package analyzers: each worker owns one package's raw slice, so
	// the merge below is deterministic in package order even though the
	// scheduling is not.
	raws := make([][]Diagnostic, len(pkgs))
	workers := analysisWorkers(len(pkgs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				pkg := pkgs[i]
				for _, a := range perPkg {
					if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
						continue
					}
					a.Run(&Pass{Pkg: pkg, check: a.Name, out: &raws[i]})
				}
			}
		}()
	}
	for i := range pkgs {
		work <- i
	}
	close(work)
	wg.Wait()

	var raw []Diagnostic
	for _, r := range raws {
		raw = append(raw, r...)
	}

	// Interprocedural analyzers run once over the whole set, sharing one
	// call graph.
	if len(suite) > 0 && len(pkgs) > 0 {
		graph := BuildCallGraph(pkgs)
		for _, a := range suite {
			a.RunSuite(&SuitePass{
				Pkgs:  pkgs,
				Graph: graph,
				fset:  pkgs[0].Fset,
				check: a.Name,
				out:   &raw,
			})
		}
	}

	// Directive matching is global: directives are keyed by file, so a
	// suite-level finding matches the directive in whichever package owns
	// the file.
	var dirs []*directive
	for _, pkg := range pkgs {
		dirs = append(dirs, collectDirectives(pkg)...)
	}
	for _, d := range raw {
		if dir := matchDirective(dirs, d); dir != nil {
			dir.used = true
			d.Reason = dir.reason
			res.Suppressed = append(res.Suppressed, d)
			continue
		}
		res.Findings = append(res.Findings, d)
	}
	res.Findings = append(res.Findings, validateDirectives(dirs, running)...)
	sortDiags(res.Findings)
	sortDiags(res.Suppressed)
	return res
}

// analysisWorkers bounds the per-package fan-out: enough to cover the
// CPUs, never more than the packages, at least one.
func analysisWorkers(pkgs int) int {
	n := runtime.GOMAXPROCS(0)
	if n > pkgs {
		n = pkgs
	}
	if n < 1 {
		n = 1
	}
	return n
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
