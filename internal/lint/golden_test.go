package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden tests load each testdata package through the real loader
// under an import path that satisfies the analyzer's package scoping,
// run the suite, and compare active findings against `// want <check>
// "<substring>"` markers in the source. Suppressed findings are asserted
// by count (their lines carry the //jrsnd:allow directives themselves).

var (
	loaderOnce sync.Once
	sharedL    *Loader
	loaderErr  error
)

// testLoader shares one Loader (and its export-data cache) across every
// test in the package, including the repo-wide self-lint.
func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { sharedL, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedL
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}

type marker struct {
	check, substr string
}

var markerRe = regexp.MustCompile(`// want (\w+) "([^"]+)"`)

// collectMarkers maps line numbers to want-markers for one file.
func collectMarkers(t *testing.T, path string) map[int][]marker {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	out := map[int][]marker{}
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range markerRe.FindAllStringSubmatch(line, -1) {
			out[i+1] = append(out[i+1], marker{check: m[1], substr: m[2]})
		}
	}
	return out
}

func runGolden(t *testing.T, analyzer, dir, asPath string, wantSuppressed int) {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", dir), asPath)
	if err != nil {
		t.Fatalf("load testdata/%s: %v", dir, err)
	}
	res := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, analyzer)})

	want := map[string]bool{} // "line/check/substr" -> matched
	for _, file := range listGoFiles(t, pkg.Dir) {
		for line, ms := range collectMarkers(t, file) {
			for _, m := range ms {
				want[fmt.Sprintf("%s:%d:%s:%s", file, line, m.check, m.substr)] = false
			}
		}
	}
	for _, d := range res.Findings {
		matched := false
		for key, seen := range want {
			if seen {
				continue
			}
			parts := strings.SplitN(key, ":", 4)
			if parts[0] == d.File && parts[1] == fmt.Sprint(d.Line) && parts[2] == d.Check && strings.Contains(d.Message, parts[3]) {
				want[key] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding %s:%d [%s] %s", d.File, d.Line, d.Check, d.Message)
		}
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("missing expected finding %s", key)
		}
	}
	if len(res.Suppressed) != wantSuppressed {
		t.Errorf("suppressed = %d, want %d: %+v", len(res.Suppressed), wantSuppressed, res.Suppressed)
	}
	for _, d := range res.Suppressed {
		if d.Reason == "" {
			t.Errorf("suppressed finding without a reason: %+v", d)
		}
	}
}

func listGoFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func TestGoldenWallclock(t *testing.T) {
	runGolden(t, "wallclock", "wallclock", "repro/internal/sim/wallclocktest", 2)
}

func TestGoldenGlobalrand(t *testing.T) {
	runGolden(t, "globalrand", "globalrand", "repro/internal/experiment/grtest", 1)
}

func TestGoldenCryptocompare(t *testing.T) {
	runGolden(t, "cryptocompare", "cryptocompare", "repro/internal/core/cctest", 1)
}

func TestGoldenBoundedalloc(t *testing.T) {
	runGolden(t, "boundedalloc", "boundedalloc", "repro/internal/wire/batest", 1)
}

func TestGoldenMutexaliasing(t *testing.T) {
	runGolden(t, "mutexaliasing", "mutexaliasing", "repro/internal/authd/matest", 1)
}

func TestGoldenSpanbalance(t *testing.T) {
	runGolden(t, "spanbalance", "spanbalance", "repro/internal/core/sbtest", 1)
}

// TestInstrumentedPackageScope pins which import paths spanbalance
// polices: exactly the span-emitting packages of docs/observability.md.
func TestInstrumentedPackageScope(t *testing.T) {
	for _, path := range []string{
		"repro/internal/core", "repro/internal/sim", "repro/internal/authd",
		"repro/internal/core/sub",
	} {
		if !IsInstrumentedPackage(path) {
			t.Errorf("IsInstrumentedPackage(%q) = false, want true", path)
		}
	}
	for _, path := range []string{
		"repro", "repro/internal/trace", "repro/internal/wire", "repro/internal/dsss",
		"repro/internal/faults", "repro/cmd/jrsnd-report", "repro/internal/corecraft",
	} {
		if IsInstrumentedPackage(path) {
			t.Errorf("IsInstrumentedPackage(%q) = true, want false", path)
		}
	}
}

// TestGoldenCryptocompareSkipsTestFiles pins the _test.go exclusion: the
// deliberate variable-time comparison in excluded_test.go must not
// surface.
func TestGoldenCryptocompareSkipsTestFiles(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "cryptocompare"), "repro/internal/core/cctest2")
	if err != nil {
		t.Fatal(err)
	}
	res := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, "cryptocompare")})
	for _, d := range append(res.Findings, res.Suppressed...) {
		if strings.Contains(d.File, "_test.go") {
			t.Errorf("diagnostic from a _test.go file: %+v", d)
		}
	}
}

// TestGoldenDirective pins the directive meta-check. Expectations are a
// table because this package's directives are themselves the subject.
func TestGoldenDirective(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "directive"), "repro/internal/sim/dirtest")
	if err != nil {
		t.Fatal(err)
	}
	res := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, "wallclock")})
	if len(res.Suppressed) != 0 {
		t.Errorf("suppressed = %+v, want none (every directive here is defective)", res.Suppressed)
	}
	type exp struct {
		line   int
		check  string
		substr string
	}
	wants := []exp{
		{11, "wallclock", "time.Now"},
		{11, "directive", "written reason"},
		{15, "directive", "unknown check"},
		{19, "directive", "suppresses nothing"},
		{23, "directive", "needs a check name"},
	}
	if len(res.Findings) != len(wants) {
		t.Errorf("findings = %d, want %d: %+v", len(res.Findings), len(wants), res.Findings)
	}
	for _, w := range wants {
		found := false
		for _, d := range res.Findings {
			if d.Line == w.line && d.Check == w.check && strings.Contains(d.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing finding line %d [%s] ~%q in %+v", w.line, w.check, w.substr, res.Findings)
		}
	}
}

// TestDeterministicPackageScope pins which import paths wallclock
// polices.
func TestDeterministicPackageScope(t *testing.T) {
	for _, path := range []string{
		"repro/internal/core", "repro/internal/sim", "repro/internal/dsss",
		"repro/internal/radio", "repro/internal/faults", "repro/internal/wire",
		"repro/internal/adversary", "repro/internal/codepool", "repro/internal/authd",
		"repro/internal/core/sub",
		"repro/internal/experiment", "repro/internal/field", "repro/internal/analysis",
		"repro/internal/stats", "repro/internal/chips", "repro/internal/rs",
		"repro/internal/ibc", "repro/internal/baseline",
	} {
		if !IsDeterministicPackage(path) {
			t.Errorf("IsDeterministicPackage(%q) = false, want true", path)
		}
	}
	for _, path := range []string{
		"repro", "repro/internal/metrics", "repro/internal/chipset",
		"repro/cmd/jrsnd-sim", "repro/internal/corecraft",
	} {
		if IsDeterministicPackage(path) {
			t.Errorf("IsDeterministicPackage(%q) = true, want false", path)
		}
	}
}
