package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeBenchOutput mimics `go test -bench -benchmem -count 3` output for
// one benchmark: three repetitions with jitter (min wins) plus the noise
// lines the parser must skip.
const fakeBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScheduleRun-8    	      81	    301472 ns/op	   62664 B/op	    1037 allocs/op
BenchmarkScheduleRun-8    	      85	    295011 ns/op	   62664 B/op	    1037 allocs/op
BenchmarkScheduleRun-8    	      79	    310990 ns/op	   62664 B/op	    1037 allocs/op
BenchmarkCascade-8        	      88	    311442 ns/op	  131208 B/op	    4101 allocs/op
PASS
ok  	repro/internal/sim	0.146s
`

func TestParseBenchKeepsBestRun(t *testing.T) {
	res, err := parseBench(fakeBenchOutput)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(res), res)
	}
	sr, ok := res["ScheduleRun"]
	if !ok {
		t.Fatalf("missing ScheduleRun (GOMAXPROCS suffix not stripped?): %+v", res)
	}
	if sr.NsPerOp != 295011 {
		t.Fatalf("ScheduleRun ns/op = %v, want the minimum across runs (295011)", sr.NsPerOp)
	}
	if sr.BytesPerOp != 62664 || sr.AllocsPerOp != 1037 {
		t.Fatalf("memory columns mis-parsed: %+v", sr)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]benchResult{
		"Fast":   {NsPerOp: 100},
		"Stable": {NsPerOp: 1000},
		"Gone":   {NsPerOp: 50},
	}
	cur := map[string]benchResult{
		"Fast":   {NsPerOp: 100 * 2.5}, // past the 2x limit at tolerance 1.0
		"Stable": {NsPerOp: 1999},      // 1.999x: inside the limit
		"Fresh":  {NsPerOp: 10},        // new: reported, not failed
	}
	fs := compare(base, cur, 1.0)
	regressions := map[string]bool{}
	for _, f := range fs {
		if f.Regression {
			name := strings.Fields(strings.TrimPrefix(f.Text, "REGRESSION "))[0]
			regressions[strings.TrimSuffix(name, ":")] = true
		}
	}
	if !regressions["Fast"] {
		t.Errorf("2.5x slowdown not flagged: %+v", fs)
	}
	if !regressions["Gone"] {
		t.Errorf("disappeared benchmark not flagged: %+v", fs)
	}
	if regressions["Stable"] || regressions["Fresh"] {
		t.Errorf("false positives: %+v", fs)
	}
}

// TestGateFailsOnSeededRegression is the acceptance check: a synthetic
// 3x-slower measurement against a recorded baseline must exit nonzero,
// and the same measurement against its own baseline must pass.
func TestGateFailsOnSeededRegression(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	baseline := `{
  "suite": "sim",
  "go_bench": "recorded for test",
  "benchmarks": {
    "ScheduleRun": {"ns_per_op": 100000, "bytes_per_op": 62664, "allocs_per_op": 1037},
    "Cascade": {"ns_per_op": 300000, "bytes_per_op": 131208, "allocs_per_op": 4101}
  }
}`
	writeFile("BENCH_sim.json", baseline)
	// Seeded regression: ScheduleRun 3x over its baseline.
	slow := writeFile("slow.txt", `
BenchmarkScheduleRun-8   100   300000 ns/op   62664 B/op   1037 allocs/op
BenchmarkCascade-8       100   300000 ns/op   131208 B/op  4101 allocs/op
`)
	var out, errw strings.Builder
	code := run(&out, &errw, config{Suites: []string{"sim"}, Tolerance: 1.0, Dir: dir, Input: slow})
	if code != 1 {
		t.Fatalf("exit = %d, want 1 for a 3x regression\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "REGRESSION ScheduleRun") {
		t.Fatalf("missing regression finding:\n%s", out.String())
	}

	// The same numbers as their own baseline: clean pass.
	healthy := writeFile("healthy.txt", `
BenchmarkScheduleRun-8   100   99000 ns/op   62664 B/op   1037 allocs/op
BenchmarkCascade-8       100   310000 ns/op  131208 B/op  4101 allocs/op
`)
	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, config{Suites: []string{"sim"}, Tolerance: 1.0, Dir: dir, Input: healthy}); code != 0 {
		t.Fatalf("exit = %d, want 0 for in-tolerance numbers\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
}

// TestGateFailsOnAllocsRegression: one more allocation per op than the
// baseline fails the gate even at baseline speed, while more bytes per op
// at the baseline's allocation count passes (B/op is not gated).
func TestGateFailsOnAllocsRegression(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	writeFile("BENCH_sim.json", `{
  "suite": "sim",
  "go_bench": "recorded for test",
  "benchmarks": {
    "ScheduleRun": {"ns_per_op": 100000, "bytes_per_op": 62664, "allocs_per_op": 1037}
  }
}`)
	for _, tc := range []struct {
		name, input string
		want        int
	}{
		{"one more alloc", "BenchmarkScheduleRun-8  100  100000 ns/op  62664 B/op  1038 allocs/op\n", 1},
		{"more bytes, same allocs", "BenchmarkScheduleRun-8  100  100000 ns/op  70000 B/op  1037 allocs/op\n", 0},
		{"fewer allocs", "BenchmarkScheduleRun-8  100  100000 ns/op  62000 B/op  1036 allocs/op\n", 0},
		{"best repetition counts", "BenchmarkScheduleRun-8  1  100000 ns/op  70000 B/op  1040 allocs/op\n" +
			"BenchmarkScheduleRun-8  100  120000 ns/op  62664 B/op  1037 allocs/op\n", 0},
	} {
		var out, errw strings.Builder
		input := writeFile("in.txt", tc.input)
		if code := run(&out, &errw, config{Suites: []string{"sim"}, Tolerance: 1.0, Dir: dir, Input: input}); code != tc.want {
			t.Fatalf("%s: exit = %d, want %d\nstdout: %s\nstderr: %s", tc.name, code, tc.want, out.String(), errw.String())
		}
		if tc.want == 1 && !strings.Contains(out.String(), "REGRESSION ScheduleRun: 1038 allocs/op vs baseline 1037") {
			t.Fatalf("%s: missing allocs finding:\n%s", tc.name, out.String())
		}
	}
}

func TestGateFlagValidation(t *testing.T) {
	var out, errw strings.Builder
	if code := run(&out, &errw, config{Suites: []string{"bogus"}}); code != 2 {
		t.Fatalf("unknown suite: exit = %d, want 2", code)
	}
	if code := run(&out, &errw, config{Suites: []string{"sim", "dsss"}, Input: "x"}); code != 2 {
		t.Fatalf("-input with two suites: exit = %d, want 2", code)
	}
	if code := run(&out, &errw, config{Suites: []string{"sim"}, Tolerance: -1}); code != 2 {
		t.Fatalf("negative tolerance: exit = %d, want 2", code)
	}
	// Missing baseline: actionable error, exit 1.
	dir := t.TempDir()
	input := filepath.Join(dir, "in.txt")
	if err := os.WriteFile(input, []byte("BenchmarkX-8 1 5 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errw.Reset()
	if code := run(&out, &errw, config{Suites: []string{"sim"}, Dir: dir, Input: input}); code != 1 {
		t.Fatalf("missing baseline: exit = %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "-update") {
		t.Fatalf("missing-baseline error not actionable: %s", errw.String())
	}
}
