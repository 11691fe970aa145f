package jrsnd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocPathsExist keeps the docs from pointing at code that is gone:
// every `go run ./<dir>` and `go test -run Example_<name>` in README.md,
// and every internal/ or cmd/ entry of DESIGN.md §5, must name a
// directory or example that exists; every test, fuzz target, benchmark
// or example that README.md, DESIGN.md, EXPERIMENTS.md or docs/*.md
// cites must be a prefix of a function some _test.go defines (so
// BenchmarkAblationRedundancy{On,Off} still counts); and every field
// those docs cite of the engine's option structs, as
// `NetworkConfig.Field` or as a key in a `RetryConfig{Field, …}`
// literal, must still be declared in internal/core.
func TestDocPathsExist(t *testing.T) {
	readme := readDoc(t, "README.md")
	runs := regexp.MustCompile(`go run \./([^\s]+)`).FindAllStringSubmatch(readme, -1)
	if len(runs) == 0 {
		t.Fatal("README.md names no `go run ./<dir>` command")
	}
	for _, m := range runs {
		requireDir(t, "README.md", m[1])
	}
	examples := readDoc(t, "example_test.go")
	for _, m := range regexp.MustCompile(`-run (Example_\w+)`).FindAllStringSubmatch(readme, -1) {
		if !strings.Contains(examples, "func "+m[1]+"()") {
			t.Errorf("README.md runs %s, which example_test.go does not define", m[1])
		}
	}

	design := readDoc(t, "DESIGN.md")
	start := strings.Index(design, "## 5.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §5")
	}
	section := design[start+len("## 5."):]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	entries := regexp.MustCompile(`(?m)^((?:internal|cmd)/[^/\s]+)/`).FindAllStringSubmatch(section, -1)
	if len(entries) == 0 {
		t.Fatal("DESIGN.md §5 lists no internal/ or cmd/ package")
	}
	for _, m := range entries {
		requireDir(t, "DESIGN.md §5", m[1])
	}

	var defined []string
	for _, fn := range testFuncs(t) {
		defined = append(defined, fn.name)
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_]\w*`)
	fields := optionFields(t)
	fieldRef := regexp.MustCompile(`\b(NetworkConfig|RetryConfig|DefenseConfig)\.(\w+)`)
	literal := regexp.MustCompile(`\b(NetworkConfig|RetryConfig|DefenseConfig)\{([^}]*)\}`)
	key := regexp.MustCompile(`^\s*([A-Z]\w*)\s*(?::|$)`)
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		text := readDoc(t, doc)
		for _, name := range cited.FindAllString(text, -1) {
			if !slices.ContainsFunc(defined, func(fn string) bool { return strings.HasPrefix(fn, name) }) {
				t.Errorf("%s cites %s, which no _test.go function is named after", doc, name)
			}
		}
		var refs [][2]string
		for _, m := range fieldRef.FindAllStringSubmatch(text, -1) {
			refs = append(refs, [2]string{m[1], m[2]})
		}
		for _, m := range literal.FindAllStringSubmatch(text, -1) {
			for _, item := range strings.Split(m[2], ",") {
				if k := key.FindStringSubmatch(item); k != nil {
					refs = append(refs, [2]string{m[1], k[1]})
				}
			}
		}
		for _, r := range refs {
			if !fields[r[0]][r[1]] {
				t.Errorf("%s cites %s.%s, which internal/core does not declare", doc, r[0], r[1])
			}
		}
	}
}

// optionFields parses internal/core and returns the field names of the
// engine's option structs: NetworkConfig, RetryConfig and DefenseConfig.
func optionFields(t *testing.T) map[string]map[string]bool {
	t.Helper()
	fields := map[string]map[string]bool{"NetworkConfig": {}, "RetryConfig": {}, "DefenseConfig": {}}
	files, err := filepath.Glob(filepath.Join("internal", "core", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			names, want := fields[spec.Name.Name]
			if st, isStruct := spec.Type.(*ast.StructType); want && isStruct {
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						names[id.Name] = true
					}
				}
			}
			return false
		})
	}
	for typ, names := range fields {
		if len(names) == 0 {
			t.Fatalf("internal/core declares no struct %s with fields", typ)
		}
	}
	return fields
}

// TestMakeFuzzCoversEveryTarget keeps `make fuzz` complete: every
// `func Fuzz*` in the repository must have a `-fuzz <name> ... ./<dir>`
// line in the Makefile's fuzz recipe, and every such line must name a
// target that exists in that directory.
func TestMakeFuzzCoversEveryTarget(t *testing.T) {
	makefile := readDoc(t, "Makefile")
	start := strings.Index(makefile, "\nfuzz:\n")
	if start < 0 {
		t.Fatal("Makefile has no fuzz target")
	}
	recipe := makefile[start+len("\nfuzz:\n"):]
	if end := strings.Index(recipe, "\n\n"); end >= 0 {
		recipe = recipe[:end]
	}
	run := map[testFunc]bool{}
	for _, m := range regexp.MustCompile(`-fuzz (\w+) .*\./(\S+)`).FindAllStringSubmatch(recipe, -1) {
		run[testFunc{name: m[1], dir: m[2]}] = true
	}
	defined := map[testFunc]bool{}
	for _, fn := range testFuncs(t) {
		if strings.HasPrefix(fn.name, "Fuzz") {
			defined[fn] = true
			if !run[fn] {
				t.Errorf("make fuzz does not run %s in ./%s", fn.name, fn.dir)
			}
		}
	}
	if len(defined) == 0 {
		t.Fatal("found no fuzz targets")
	}
	for fn := range run {
		if !defined[fn] {
			t.Errorf("make fuzz runs %s in ./%s, which no _test.go there defines", fn.name, fn.dir)
		}
	}
}

// testFunc is a top-level function of a _test.go file and the directory
// (slash-separated, relative to the repository root) that holds it.
type testFunc struct{ name, dir string }

// testFuncs lists the top-level functions of every _test.go file in the
// repository.
func testFuncs(t *testing.T) []testFunc {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (\w+)\(`)
	var funcs []testFunc
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		for _, m := range decl.FindAllStringSubmatch(readDoc(t, path), -1) {
			funcs = append(funcs, testFunc{name: m[1], dir: filepath.ToSlash(filepath.Dir(path))})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func requireDir(t *testing.T, doc, path string) {
	t.Helper()
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Errorf("%s names %s, which is not a directory", doc, path)
	}
}
