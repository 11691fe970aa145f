package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden and seeded-violation coverage for the interprocedural suite.
// Each fixture package must produce exactly its want-marked findings —
// a broken analyzer that reports nothing fails these tests rather than
// passing the repo-wide self-lint vacuously.

func TestGoldenGoroutinelifecycle(t *testing.T) {
	runGolden(t, "goroutinelifecycle", "goroutinelifecycle", "repro/internal/transport/gltest", 1)
	runGolden(t, "goroutinelifecycle", "goroutinelifecycle", "repro/internal/subproc/gltest", 1)
}

func TestGoldenLockorder(t *testing.T) {
	runGolden(t, "lockorder", "lockorder", "repro/internal/authd/lotest", 1)
}

func TestGoldenHotpathalloc(t *testing.T) {
	runGolden(t, "hotpathalloc", "hotpathalloc", "repro/internal/dsss/hptest", 1)
}

// TestSuiteScopeExcludesOtherPackages pins the package scoping: the same
// seeded violations outside the service/scoped import paths produce no
// concurrency findings (hotpathalloc is directive-scoped, not
// path-scoped, so it is exercised above instead).
func TestSuiteScopeExcludesOtherPackages(t *testing.T) {
	l := testLoader(t)
	for _, tc := range []struct {
		dir, asPath, check string
	}{
		{"goroutinelifecycle", "repro/internal/experiment/gltest", "goroutinelifecycle"},
		{"lockorder", "repro/internal/sim/lotest", "lockorder"},
	} {
		pkg, err := l.LoadDir(filepath.Join("testdata", tc.dir), tc.asPath)
		if err != nil {
			t.Fatal(err)
		}
		res := Run([]*Package{pkg}, []*Analyzer{analyzerByName(t, tc.check)})
		for _, d := range res.Findings {
			if d.Check == tc.check {
				t.Errorf("%s fired outside its package scope (as %s): %+v", tc.check, tc.asPath, d)
			}
		}
	}
}

// TestStaleDirectivesForSuiteChecks pins stale-directive detection for
// the three new checks: an allow that suppresses nothing is itself a
// finding when its check runs.
func TestStaleDirectivesForSuiteChecks(t *testing.T) {
	dir := t.TempDir()
	src := `package stale

import "sync"

var mu sync.Mutex

//jrsnd:allow goroutinelifecycle nothing here spawns goroutines
func a() {}

//jrsnd:allow lockorder nothing here locks anything
func b() { mu.Lock(); mu.Unlock() }

//jrsnd:allow hotpathalloc nothing here is hot
func c() {}
`
	if err := os.WriteFile(filepath.Join(dir, "stale.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := testLoader(t)
	pkg, err := l.LoadDir(dir, "repro/internal/transport/staletest")
	if err != nil {
		t.Fatal(err)
	}
	res := Run([]*Package{pkg}, []*Analyzer{
		analyzerByName(t, "goroutinelifecycle"),
		analyzerByName(t, "lockorder"),
		analyzerByName(t, "hotpathalloc"),
	})
	for _, check := range []string{"goroutinelifecycle", "lockorder", "hotpathalloc"} {
		found := false
		for _, d := range res.Findings {
			if d.Check == directiveCheck && strings.Contains(d.Message, "//jrsnd:allow "+check) &&
				strings.Contains(d.Message, "suppresses nothing") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no stale-directive finding for unused //jrsnd:allow %s: %+v", check, res.Findings)
		}
	}
}
