package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload: a fixed unit of work (a pass) run
// through the library entry points, plus a replay of the same work
// through the layers' public functions for the traced run.
type workload interface {
	// setup prepares the workload. It may be called several times; each
	// call replaces the state the previous one built.
	setup(seed int64) error
	// pass runs the fixed work once through the library entry points,
	// timing each library call as a unit on clk (which may be nil).
	pass(ctx context.Context, seed int64, clk *clock) (passResult, error)
	// replay runs the same work as pass, recording one span per stage
	// under parent, and returns the same outputs.
	replay(ctx context.Context, seed int64, tr *tracer, parent *span) (outputs, error)
	// diverge names the stage where the replay's output key first
	// differs from the untraced pass.
	diverge(seed int64, key string) string
	close()
}

// scraper is implemented by workloads that read per-layer metrics from
// the program itself once the traced loop ends.
type scraper interface {
	scrape(tr *tracer) error
}

// traceSetup is implemented by workloads whose replay needs state of
// its own, built before the traced loop starts.
type traceSetup interface {
	setupTrace(seed int64, tr *tracer) error
}

// passResult is the outcome of one untraced pass.
type passResult struct {
	out outputs
	// ops counts the operations the pass completed; failed counts those
	// that failed on their own (output mismatches are added by the
	// caller).
	ops, failed int
	// p50 and p99 are per-request latencies when a pass is a batch of
	// client requests; zero means the units give the latency samples.
	p50, p99 time.Duration
}

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s reports the median.
const setupRepeats = 5

// passTimeout bounds one pass, so a hung program still lets the run
// finish inside its time limit.
const passTimeout = 60 * time.Second

// passSeed is the seed of timed pass i. Every pass draws fresh inputs
// from the run's seed, so one run averages over several of them: the
// chaos matrix's cost alone varies by about ±8% from seed to seed.
func passSeed(seed int64, i int) int64 {
	return seed + int64(i)*1_000_003
}

// runTimed is the untraced run: set up, run one check pass at the
// pinned default seed against pins.json, then repeat timed passes for
// opts.seconds, each at its own seed drawn from opts.seed. A pass whose
// seed is pinned must reproduce the pins, and one whose seed has run
// before must reproduce that run. The check pass counts in attempted
// and failed operations but not in the timings.
//
// Timings are calibrated (see clock). ops_per_s is the operations of the
// timed passes over their summed calibrated unit time. latency_p50_ms
// and latency_p99_ms are medians over the timed passes of each pass's
// percentiles of operation latency: a request's own latency in a request
// batch, otherwise its unit's time split evenly over the unit's
// operations.
func runTimed(w workload, opts options, pins pinSet, log io.Writer) (result, error) {
	setup := &clock{calibrate: true}
	for i := 0; i < setupRepeats; i++ {
		if err := setup.time(1, func() error { return w.setup(opts.seed) }); err != nil {
			return result{}, fmt.Errorf("%s setup: %w", opts.workload, err)
		}
	}

	refs := map[int64]outputs{}
	check := func(seed int64, pr passResult) int {
		var bad []mismatch
		if want, ok := pins.lookup(seed, opts.workload); ok {
			bad = append(bad, diff(want, pr.out)...)
		}
		if ref, ok := refs[seed]; ok {
			bad = append(bad, diff(ref, pr.out)...)
		} else {
			refs[seed] = pr.out
		}
		if len(bad) == 0 {
			return pr.failed
		}
		fmt.Fprintf(log, "%s (seed %d): %d output mismatches, first %s\n", opts.workload, seed, len(bad), bad[0])
		return pr.ops
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	pr, err := w.pass(ctx, defaultSeed, nil)
	cancel()
	if err != nil {
		return result{}, fmt.Errorf("%s check pass (seed %d): %w", opts.workload, defaultSeed, err)
	}
	ops, failed := pr.ops, check(defaultSeed, pr)

	timedOps, timed, raw, allocBytes := 0, 0.0, 0.0, uint64(0)
	var p50s, p99s []float64
	passes := 0
	limit := time.Duration(opts.seconds) * time.Second
	start := time.Now()
	for ; passes == 0 || time.Since(start) < limit; passes++ {
		seed := passSeed(opts.seed, passes)
		ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
		clk := &clock{calibrate: true}
		pr, err := w.pass(ctx, seed, clk)
		cancel()
		if err != nil {
			return result{}, fmt.Errorf("%s pass %d (seed %d): %w", opts.workload, passes, seed, err)
		}
		ops += pr.ops
		failed += check(seed, pr)
		var opLatency []float64
		for _, u := range clk.units {
			cal := u.calibrated().Seconds()
			timedOps += u.ops
			timed += cal
			raw += u.wall.Seconds()
			allocBytes += u.allocBytes
			for i := 0; i < u.ops; i++ {
				opLatency = append(opLatency, cal/float64(u.ops))
			}
		}
		p50, p99 := quantile(opLatency, 0.5), quantile(opLatency, 0.99)
		if pr.p50 > 0 {
			// A request batch: its own per-request percentiles, on the
			// batch's calibrated scale.
			u := clk.units[0]
			scale := float64(u.calibrated()) / float64(u.wall)
			p50, p99 = pr.p50.Seconds()*scale, pr.p99.Seconds()*scale
		}
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
	}
	var setupTimes, rawSetup []float64
	for _, u := range setup.units {
		setupTimes = append(setupTimes, u.calibrated().Seconds())
		rawSetup = append(rawSetup, u.wall.Seconds())
	}
	fmt.Fprintf(log, "%s: seed %d, %d passes, %d ops, %d failed; uncalibrated %.1f ops/s, setup %.4fs\n",
		opts.workload, opts.seed, passes, ops, failed, float64(timedOps)/raw, median(rawSetup))
	return result{
		Correct:   failed == 0,
		Attempted: ops,
		Failed:    failed,
		Metrics: map[string]metric{
			"ops_per_s":       {float64(timedOps) / timed, "1/s"},
			"latency_p50_ms":  {median(p50s) * 1e3, "ms"},
			"latency_p99_ms":  {median(p99s) * 1e3, "ms"},
			"setup_s":         {median(setupTimes), "s"},
			"alloc_mb_per_op": {float64(allocBytes) / 1e6 / float64(timedOps), "MB/op"},
		},
	}, nil
}

// runTraced is the traced run: it alternates an untraced pass with a
// traced replay of the same seed for opts.seconds, cross-checks every
// replay against its untraced pass, and reports per-layer metrics as
// means per traced pass. The untraced passes' units are timed without
// calibration; they give the raw wall figures.
func runTraced(w workload, opts options, pins pinSet, log io.Writer) (result, error) {
	setupStart := time.Now()
	if err := w.setup(opts.seed); err != nil {
		return result{}, fmt.Errorf("%s setup: %w", opts.workload, err)
	}
	tr := newTracer()
	tr.vals["raw.setup_s"] = time.Since(setupStart).Seconds()
	if ts, ok := w.(traceSetup); ok {
		if err := ts.setupTrace(opts.seed, tr); err != nil {
			return result{}, fmt.Errorf("%s trace setup: %w", opts.workload, err)
		}
	}
	var untraced, traced time.Duration
	passes, ops, failed, unitOps := 0, 0, 0, 0
	limit := time.Duration(opts.seconds) * time.Second
	start := time.Now()
	for passes == 0 || time.Since(start) < limit {
		ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
		clk := &clock{}
		pr, err := w.pass(ctx, opts.seed, clk)
		if err != nil {
			cancel()
			return result{}, fmt.Errorf("%s untraced pass: %w", opts.workload, err)
		}
		for _, u := range clk.units {
			untraced += u.wall
			unitOps += u.ops
		}
		root := tr.start(nil, opts.workload+".pass")
		out, err := w.replay(ctx, opts.seed, tr, root)
		root.end()
		cancel()
		traced += root.dur
		if err != nil {
			return result{}, fmt.Errorf("%s traced replay: %w", opts.workload, err)
		}
		if bad := diff(pr.out, out); len(bad) > 0 {
			return result{}, fmt.Errorf("%s: traced replay diverges from the untraced run at stage %s (%d outputs differ, first %s)",
				opts.workload, w.diverge(opts.seed, bad[0].Key), len(bad), bad[0])
		}
		ops += pr.ops
		bad := pr.failed
		if want, ok := pins.lookup(opts.seed, opts.workload); ok {
			if d := diff(want, out); len(d) > 0 {
				fmt.Fprintf(log, "%s: %d outputs differ from the pins, first %s\n", opts.workload, len(d), d[0])
				bad = pr.ops
			}
		}
		failed += bad
		passes++
	}
	if s, ok := w.(scraper); ok {
		if err := s.scrape(tr); err != nil {
			return result{}, fmt.Errorf("%s scrape: %w", opts.workload, err)
		}
	}
	dir, err := tr.write(opts.traceDir, opts.workload)
	if err != nil {
		return result{}, err
	}
	tr.vals["raw.ops_per_s"] = float64(unitOps) / untraced.Seconds()
	m := layerMetrics(tr, passes, untraced, traced)
	fmt.Fprintf(log, "%s: seed %d, %d traced passes, %d spans -> %s; untraced %.3fs, traced %.3fs, coverage %.3f\n",
		opts.workload, opts.seed, passes, tr.spans(), dir, untraced.Seconds(), traced.Seconds(), m["trace.layer_coverage"].Value)
	return result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: m}, nil
}

// value is one pinned or cross-checked workload output.
type value struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// outputs is a workload's output list, in a fixed order.
type outputs []value

// mismatch is one differing output.
type mismatch struct {
	Key       string
	Want, Got float64
}

func (m mismatch) String() string {
	return fmt.Sprintf("%s: want %v, got %v", m.Key, m.Want, m.Got)
}

// diff compares two output lists exactly; a missing or extra key is a
// mismatch with NaN on the absent side.
func diff(want, got outputs) []mismatch {
	gotByKey := make(map[string]float64, len(got))
	for _, v := range got {
		gotByKey[v.Key] = v.Value
	}
	var out []mismatch
	seen := make(map[string]bool, len(want))
	for _, w := range want {
		seen[w.Key] = true
		g, ok := gotByKey[w.Key]
		if !ok {
			g = math.NaN()
		}
		if !ok || g != w.Value {
			out = append(out, mismatch{w.Key, w.Value, g})
		}
	}
	for _, g := range got {
		if !seen[g.Key] {
			out = append(out, mismatch{g.Key, math.NaN(), g.Value})
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// layerPrefix reports whether a span name belongs to a program layer
// (rather than to the benchmark's own pass or load-generator spans).
func layerPrefix(name string) bool {
	layer, _, ok := strings.Cut(name, ".")
	if !ok {
		return false
	}
	switch layer {
	case "sim", "field", "codepool", "radio", "experiment", "chips", "dsss", "core", "faults", "authd":
		return true
	}
	return false
}
