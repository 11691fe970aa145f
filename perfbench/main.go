// Command perfbench is the repository benchmark. It drives four
// workloads through the same library entry points the CLIs call and
// prints every metric by name, with its unit:
//
//   - figure-sweep: the points of experiment.Fig2a and experiment.Fig5b
//     at Table I defaults (reactive jammer, Runs=1 per point), pinned
//     against the two figure calls;
//   - chip-channel: experiment.InterferenceValidation (the ext-noise
//     figure) and experiment.DSSSValidation (the dsss figure) at fixed
//     trial counts;
//   - protocol-engine: faults.RunMatrix over the full 32-cell chaos
//     matrix, each cell run twice for its determinism check;
//   - authority: an in-process authd.Server with a durable WAL, driven by
//     authd.RunLoad in a closed loop (2 workers, 70/10/20 mix, batch 2),
//     a freshly booted server for each 1000-request batch.
//
// An untraced run (-trace 0) times repeated passes of the workload's
// fixed work and reports the end-to-end metrics. A traced run (-trace 1)
// alternates untraced passes with a replay of the same work through the
// layers' public functions, one span per stage, and reports per-layer
// time, call counts and allocations; the replay must reproduce the
// untraced outputs exactly. The spans are written as internal/trace span
// JSONL when the run ends, readable with
// `jrsnd-report -trace <dir> -trace-only -folded <file>`.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload figure-sweep --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// Pinned seeds: outputs of every deterministic workload at these seeds
// are checked in (pins.json). The default seed is also the first pass of
// every untraced run, so each run checks the pins whatever seed it is
// given.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceDir string
	// pins overrides the embedded pinned outputs (nil keeps them).
	pins pinSet
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts options
	fs.StringVar(&opts.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&opts.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&opts.seconds, "seconds", 15, "measurement time in seconds")
	fs.IntVar(&opts.trace, "trace", 0, "1 replays the workload with per-layer spans and reports per-layer metrics")
	fs.StringVar(&opts.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory for the traced run's span JSONL")
	pinOut := fs.String("pin", "", "regenerate the pinned outputs into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pinOut != "" {
		if err := writePins(*pinOut); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload validates the options and runs one workload, untraced or
// traced. It writes human-readable detail lines to log.
func runWorkload(opts options, log io.Writer) (result, error) {
	w, err := newWorkload(opts.workload)
	if err != nil {
		return result{}, err
	}
	if opts.seconds < 1 {
		return result{}, fmt.Errorf("-seconds %d must be >= 1", opts.seconds)
	}
	if opts.trace != 0 && opts.trace != 1 {
		return result{}, fmt.Errorf("-trace %d must be 0 or 1", opts.trace)
	}
	// One P for every workload: the calibration kernel (see clock) then
	// shares the CPU, and the co-tenant contention, with the work it
	// calibrates. The authority's server and load generator interleave on
	// it; the WAL's fsyncs hand the P over while they block.
	runtime.GOMAXPROCS(1)
	defer w.close()
	pins := opts.pins
	if pins == nil {
		if pins, err = embeddedPins(); err != nil {
			return result{}, err
		}
	}
	if opts.trace == 1 {
		return runTraced(w, opts, pins, log)
	}
	return runTimed(w, opts, pins, log)
}

func workloadNames() []string {
	return []string{"authority", "chip-channel", "figure-sweep", "protocol-engine"}
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "figure-sweep":
		return &figureSweep{}, nil
	case "chip-channel":
		return &chipChannel{}, nil
	case "protocol-engine":
		return &protocolEngine{}, nil
	case "authority":
		return &authority{}, nil
	case "":
		return nil, errors.New("-workload is required")
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}
