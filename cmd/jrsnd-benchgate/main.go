// Command jrsnd-benchgate is the benchmark-regression gate: it runs the
// Go benchmarks of the hot-path packages (sim, dsss, authd, transport,
// the figure campaign's field and codepool kernels, the ID-based key,
// signature and session-code primitives in ibc, the event-driven
// protocol engine's D-NDP and M-NDP rounds in core, and the Reed–Solomon
// codec in rs), reduces each benchmark to its best observed ns/op and
// allocs/op across -count repetitions, and compares the result against
// the checked-in per-suite baseline (BENCH_sim.json, BENCH_dsss.json, …).
// A benchmark slower than baseline × (1 + tolerance), or allocating more
// per op than its baseline, is a regression and the gate exits nonzero —
// wired into `make tier1` so every hot-path change is measured against
// the locked-in trajectory.
//
// Usage:
//
//	jrsnd-benchgate                      # gate every suite against its baseline
//	jrsnd-benchgate -suite sim,dsss      # subset
//	jrsnd-benchgate -update              # re-measure and rewrite the baselines
//	jrsnd-benchgate -tolerance 0.5       # fail at >1.5× baseline
//
// The default tolerance is deliberately loose (fail only past 2×):
// checked-in baselines travel across machines, and the gate exists to
// catch algorithmic regressions — an accidental O(n²), a lost fast path —
// not scheduler jitter. Tighten it on a pinned benchmarking host.
// Allocation counts do not depend on the machine, so allocs/op is gated
// exactly; B/op is recorded but not gated, as it varies from run to run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// suite is one gated benchmark package.
type suite struct {
	Pkg      string // go package pattern
	Baseline string // checked-in baseline file, relative to -dir
}

// suites maps -suite names to their packages; suiteOrder fixes the run
// order (and the -suite "" default).
var suites = map[string]suite{
	"sim":       {Pkg: "./internal/sim", Baseline: "BENCH_sim.json"},
	"dsss":      {Pkg: "./internal/dsss", Baseline: "BENCH_dsss.json"},
	"authd":     {Pkg: "./internal/authd", Baseline: "BENCH_authd_go.json"},
	"transport": {Pkg: "./internal/transport", Baseline: "BENCH_transport.json"},
	"field":     {Pkg: "./internal/field", Baseline: "BENCH_field.json"},
	"codepool":  {Pkg: "./internal/codepool", Baseline: "BENCH_codepool.json"},
	"ibc":       {Pkg: "./internal/ibc", Baseline: "BENCH_ibc.json"},
	"core":      {Pkg: "./internal/core", Baseline: "BENCH_core.json"},
	"rs":        {Pkg: "./internal/rs", Baseline: "BENCH_rs.json"},
}

var suiteOrder = []string{"sim", "dsss", "authd", "transport", "field", "codepool", "ibc", "core", "rs"}

// benchResult is one benchmark's reduced measurement.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// baselineFile is the on-disk baseline shape: one flat snake_case JSON
// file per suite.
type baselineFile struct {
	Suite      string                 `json:"suite"`
	GoBench    string                 `json:"go_bench"` // the command the numbers came from
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

func main() {
	var (
		suitesFlag = flag.String("suite", "", "comma-separated suites to gate (default: "+strings.Join(suiteOrder, ",")+")")
		update     = flag.Bool("update", false, "re-measure and rewrite the baseline files instead of gating")
		tolerance  = flag.Float64("tolerance", 1.0, "allowed slowdown fraction: fail when ns/op > baseline*(1+tolerance)")
		benchtime  = flag.String("benchtime", "100ms", "go test -benchtime per benchmark")
		count      = flag.Int("count", 3, "go test -count repetitions (best run wins)")
		dir        = flag.String("dir", ".", "repo root holding the baseline files")
		input      = flag.String("input", "", "gate pre-recorded `go test -bench` output from this file instead of running benchmarks (requires exactly one -suite)")
	)
	flag.Parse()
	os.Exit(run(os.Stdout, os.Stderr, config{
		Suites:    splitSuites(*suitesFlag),
		Update:    *update,
		Tolerance: *tolerance,
		Benchtime: *benchtime,
		Count:     *count,
		Dir:       *dir,
		Input:     *input,
	}))
}

type config struct {
	Suites    []string
	Update    bool
	Tolerance float64
	Benchtime string
	Count     int
	Dir       string
	Input     string
}

func splitSuites(flagVal string) []string {
	if flagVal == "" {
		return suiteOrder
	}
	var out []string
	for _, s := range strings.Split(flagVal, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// run executes the gate and returns the process exit code: 0 clean, 1 on
// regression (or error), 2 on bad flags.
func run(out, errw io.Writer, cfg config) int {
	if cfg.Tolerance < 0 {
		fmt.Fprintln(errw, "jrsnd-benchgate: -tolerance must be >= 0")
		return 2
	}
	if cfg.Input != "" && (len(cfg.Suites) != 1 || cfg.Update) {
		fmt.Fprintln(errw, "jrsnd-benchgate: -input requires exactly one -suite and no -update")
		return 2
	}
	failed := false
	for _, name := range cfg.Suites {
		s, ok := suites[name]
		if !ok {
			fmt.Fprintf(errw, "jrsnd-benchgate: unknown suite %q (have %s)\n", name, strings.Join(suiteOrder, ", "))
			return 2
		}
		results, cmdline, err := measure(name, s, cfg)
		if err != nil {
			fmt.Fprintf(errw, "jrsnd-benchgate: %s: %v\n", name, err)
			return 1
		}
		if len(results) == 0 {
			fmt.Fprintf(errw, "jrsnd-benchgate: %s: no benchmarks found\n", name)
			return 1
		}
		basePath := filepath.Join(cfg.Dir, s.Baseline)
		if cfg.Update {
			if err := writeBaseline(basePath, baselineFile{Suite: name, GoBench: cmdline, Benchmarks: results}); err != nil {
				fmt.Fprintf(errw, "jrsnd-benchgate: %s: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(out, "%s: baseline updated (%d benchmarks) -> %s\n", name, len(results), basePath)
			continue
		}
		base, err := readBaseline(basePath)
		if err != nil {
			fmt.Fprintf(errw, "jrsnd-benchgate: %s: %v (run with -update to record a baseline)\n", name, err)
			return 1
		}
		findings := compare(base.Benchmarks, results, cfg.Tolerance)
		for _, f := range findings {
			fmt.Fprintf(out, "%s: %s\n", name, f.Text)
			if f.Regression {
				failed = true
			}
		}
		if !hasRegression(findings) {
			fmt.Fprintf(out, "%s: %d benchmarks within %.2gx of baseline ns/op and at or below its allocs/op\n", name, len(base.Benchmarks), 1+cfg.Tolerance)
		}
	}
	if failed {
		fmt.Fprintln(errw, "jrsnd-benchgate: performance regression — investigate, or re-baseline deliberately with -update")
		return 1
	}
	return 0
}

// measure obtains a suite's reduced results: from a pre-recorded -input
// file, or by running `go test -bench`.
func measure(name string, s suite, cfg config) (map[string]benchResult, string, error) {
	if cfg.Input != "" {
		data, err := os.ReadFile(cfg.Input)
		if err != nil {
			return nil, "", err
		}
		res, err := parseBench(string(data))
		return res, "pre-recorded: " + cfg.Input, err
	}
	args := []string{"test", "-run", "^$", "-bench", ".", "-benchmem",
		"-benchtime", cfg.Benchtime, "-count", strconv.Itoa(cfg.Count), s.Pkg}
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		return nil, "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, outBytes)
	}
	res, err := parseBench(string(outBytes))
	return res, "go " + strings.Join(args, " "), err
}

// parseBench reduces `go test -bench` output to per-benchmark results,
// keeping the best (minimum) ns/op across -count repetitions — the run
// least disturbed by the machine — with that run's B/op, and the minimum
// allocs/op, which a short repetition can inflate with one-off setup.
func parseBench(out string) (map[string]benchResult, error) {
	results := map[string]benchResult{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// BenchmarkName-8  1234  567 ns/op [ 89 B/op  2 allocs/op ]
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		name = strings.TrimPrefix(name, "Benchmark")
		r := benchResult{NsPerOp: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
				}
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			}
		}
		if r.NsPerOp < 0 {
			continue
		}
		if prev, ok := results[name]; ok {
			if prev.NsPerOp <= r.NsPerOp {
				r.NsPerOp, r.BytesPerOp = prev.NsPerOp, prev.BytesPerOp
			}
			r.AllocsPerOp = min(r.AllocsPerOp, prev.AllocsPerOp)
		}
		results[name] = r
	}
	return results, nil
}

// finding is one comparison outcome line.
type finding struct {
	Text       string
	Regression bool
}

func hasRegression(fs []finding) bool {
	for _, f := range fs {
		if f.Regression {
			return true
		}
	}
	return false
}

// compare gates current results against the baseline. A benchmark slower
// than baseline*(1+tolerance), or with more allocs/op than the baseline,
// regresses; a benchmark that disappeared regresses (deleting the
// measurement is not a way past the gate); a new benchmark is reported
// but passes (record it with -update).
func compare(base, cur map[string]benchResult, tolerance float64) []finding {
	var names []string
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []finding
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			out = append(out, finding{
				Text:       fmt.Sprintf("REGRESSION %s: benchmark missing (baseline %.0f ns/op)", name, b.NsPerOp),
				Regression: true,
			})
			continue
		}
		limit := b.NsPerOp * (1 + tolerance)
		if c.NsPerOp > limit {
			out = append(out, finding{
				Text: fmt.Sprintf("REGRESSION %s: %.0f ns/op vs baseline %.0f (limit %.0f, %.2fx)",
					name, c.NsPerOp, b.NsPerOp, limit, c.NsPerOp/b.NsPerOp),
				Regression: true,
			})
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			out = append(out, finding{
				Text:       fmt.Sprintf("REGRESSION %s: %d allocs/op vs baseline %d", name, c.AllocsPerOp, b.AllocsPerOp),
				Regression: true,
			})
		}
	}
	var newNames []string
	for name := range cur {
		if _, ok := base[name]; !ok {
			newNames = append(newNames, name)
		}
	}
	sort.Strings(newNames)
	for _, name := range newNames {
		out = append(out, finding{Text: fmt.Sprintf("new benchmark %s: %.0f ns/op (not in baseline; -update to record)", name, cur[name].NsPerOp)})
	}
	return out
}

func readBaseline(path string) (baselineFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return baselineFile{}, err
	}
	var b baselineFile
	if err := json.Unmarshal(data, &b); err != nil {
		return baselineFile{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return baselineFile{}, fmt.Errorf("%s: empty baseline", path)
	}
	return b, nil
}

func writeBaseline(path string, b baselineFile) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
