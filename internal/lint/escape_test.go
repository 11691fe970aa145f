package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestHotpathEscapeCrossCheck makes the hotpathalloc analyzer and the
// compiler agree: the //jrsnd:hotpath closures in chips and dsss are
// compiled with -gcflags=-m and no "escapes to heap" / "moved to heap"
// diagnostic may land inside a hot function body. The two packages are
// copied into a throwaway module first, because a build-cache hit on the
// real packages would silently print no diagnostics at all and the test
// would pass vacuously.
func TestHotpathEscapeCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a throwaway module")
	}
	l := testLoader(t)
	pkgs, err := l.LoadPatterns("./internal/chips", "./internal/dsss")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	graph := BuildCallGraph(pkgs)
	var sink []Diagnostic
	pass := &SuitePass{Pkgs: pkgs, Graph: graph, fset: l.Fset, check: "hotpathalloc", out: &sink}
	var roots []string
	for _, pkg := range pkgs {
		roots = append(roots, hotpathRoots(pass, pkg)...)
	}
	if len(sink) != 0 {
		t.Fatalf("unattached //jrsnd:hotpath directives: %+v", sink)
	}
	if len(roots) < 4 {
		t.Fatalf("hotpath roots = %v, want at least the despread/sync/correlation kernels", roots)
	}

	// Hot body line ranges, keyed by module-relative file path.
	type span struct {
		name   string
		lo, hi int
	}
	hot := map[string][]span{}
	closure := graph.Closure(roots)
	for key := range closure {
		node := graph.Funcs[key]
		if node == nil {
			continue
		}
		p0 := l.Fset.Position(node.Decl.Pos())
		p1 := l.Fset.Position(node.Decl.End())
		rel, err := filepath.Rel(l.ModuleRoot, p0.Filename)
		if err != nil {
			t.Fatal(err)
		}
		hot[rel] = append(hot[rel], span{name: ShortFuncName(key), lo: p0.Line, hi: p1.Line})
	}

	// Copy the packages — plus their transitive module-internal
	// dependencies — verbatim (same relative paths, so line numbers
	// transfer) into a fresh module and compile with -m.
	deps, err := l.goList("list", "-deps", "-json=ImportPath,Dir,Standard", "--", "./internal/chips", "./internal/dsss")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	for _, d := range deps {
		if d.Standard || !strings.HasPrefix(d.ImportPath, l.ModulePath) {
			continue
		}
		dir, err := filepath.Rel(l.ModuleRoot, d.Dir)
		if err != nil {
			t.Fatal(err)
		}
		src := filepath.Join(l.ModuleRoot, dir)
		dst := filepath.Join(tmp, dir)
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, "go.mod"), []byte("module repro\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-gcflags=./...=-m", "./...")
	cmd.Dir = tmp
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}

	diagRe := regexp.MustCompile(`^(\S+\.go):(\d+):\d+: (.*)$`)
	sawDiag := false
	for _, line := range strings.Split(string(out), "\n") {
		m := diagRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		sawDiag = true
		msg := m[3]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		file := filepath.ToSlash(m[1])
		for _, s := range hot[file] {
			if lineNo >= s.lo && lineNo <= s.hi {
				t.Errorf("compiler escape inside hot path %s: %s:%d: %s", s.name, file, lineNo, msg)
			}
		}
	}
	if !sawDiag {
		t.Fatal("go build -gcflags=-m produced no diagnostics at all; the cross-check ran vacuously")
	}
}
