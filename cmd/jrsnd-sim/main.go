// Command jrsnd-sim reproduces the paper's evaluation artifacts: pass an
// experiment id and it prints the measured series next to the theoretical
// curves. -list prints the ids of the experiment registry in
// internal/experiment; "all" runs every one of them in that order.
//
// Usage:
//
//	jrsnd-sim -exp fig4a -runs 100 -seed 1
//	jrsnd-sim -exp all -runs 20 -csv out/   # quicker full pass + CSV files
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	os.Exit(mainRun())
}

// mainRun parses flags, dispatches the selected mode, and returns the
// process exit code. It exists (instead of os.Exit calls inline) so the
// profile teardown deferred below always runs.
func mainRun() int {
	var (
		exp     = flag.String("exp", "all", "experiment id, or all (-list prints the ids)")
		runs    = flag.Int("runs", 100, "Monte-Carlo runs per parameter point")
		seed    = flag.Int64("seed", 1, "base random seed")
		jammer  = flag.String("jammer", "reactive", "jammer model: none, random, reactive")
		iterate = flag.Bool("iterate-mndp", false, "close the logical graph under repeated M-NDP rounds")
		n       = flag.Int("n", 0, "override node count (0 = Table I default)")
		csvDir  = flag.String("csv", "", "also write each figure as <dir>/<id>.csv")
		point   = flag.Bool("point", false, "instead of a figure, measure a single point at the (possibly overridden) parameters and print it with 95% confidence intervals")
		q       = flag.Int("q", -1, "override compromised-node count (with -point)")
		list    = flag.Bool("list", false, "list the available experiment ids and exit")
		mfile   = flag.String("metrics", "", "run one instrumented protocol-engine deployment and write the metric snapshot here (.json for JSON, anything else for Prometheus text)")
		tfile   = flag.String("trace-jsonl", "", "stream protocol trace events as JSONL: a file for an instrumented deployment, a directory (one file per cell) with -chaos")
		chaos   = flag.Bool("chaos", false, "run the fault matrix (jammer × churn × loss × adversary) with invariant checking; exits non-zero on any violation")
		adv     = flag.String("adversary", "", "with -chaos: restrict the matrix to one Byzantine behavior (replay, forge, bitflip, flood)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()
	if *list {
		for _, id := range experiment.IDs() {
			fmt.Println(id)
		}
		return 0
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jrsnd-sim:", err)
		return 1
	}
	defer stopProf()
	if *adv != "" && !*chaos {
		fmt.Fprintln(os.Stderr, "jrsnd-sim: -adversary requires -chaos")
		return 2
	}
	if *chaos {
		// The chaos harness fixes its own deployment and adversaries; the
		// experiment-selection flags cannot apply. -trace-jsonl is
		// reinterpreted as a directory: one JSONL trace per cell.
		if *point || *mfile != "" || *n != 0 || *q != -1 {
			fmt.Fprintln(os.Stderr, "jrsnd-sim: -chaos cannot be combined with -point, -metrics, -n, or -q")
			return 2
		}
		cells, err := chaosCells(*adv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jrsnd-sim:", err)
			return 2
		}
		violations, err := runChaos(os.Stdout, *seed, cells, *tfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jrsnd-sim:", err)
			return 1
		}
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "jrsnd-sim: %d invariant violations\n", violations)
			return 1
		}
		return 0
	}
	if *mfile != "" || *tfile != "" {
		if err := runInstrumented(*mfile, *tfile, *seed, *jammer, *n, *q); err != nil {
			fmt.Fprintln(os.Stderr, "jrsnd-sim:", err)
			return 1
		}
		return 0
	}
	if *point {
		if err := runPoint(*runs, *seed, *jammer, *n, *q); err != nil {
			fmt.Fprintln(os.Stderr, "jrsnd-sim:", err)
			return 1
		}
		return 0
	}
	if err := run(*exp, *runs, *seed, *jammer, *iterate, *n, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "jrsnd-sim:", err)
		return 1
	}
	return 0
}

// startProfiles arms the optional -cpuprofile/-memprofile outputs. The
// returned stop function ends CPU profiling and snapshots the heap; it is
// safe to call when neither profile was requested.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "cpu profile -> %s\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jrsnd-sim: memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "jrsnd-sim: memprofile:", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "heap profile -> %s\n", memPath)
		}
	}, nil
}

func run(exp string, runs int, seed int64, jammer string, iterate bool, n int, csvDir string) error {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	jm, _, err := parseJammer(jammer)
	if err != nil {
		return err
	}
	base := analysis.Defaults()
	if n > 0 {
		base.N = n
	}
	cfg := experiment.SweepConfig{
		Base:        base,
		Runs:        runs,
		Seed:        seed,
		Jammer:      jm,
		IterateMNDP: iterate,
	}

	todo := experiment.Experiments
	if exp != "all" {
		e, err := experiment.Lookup(exp)
		if err != nil {
			return err
		}
		todo = []experiment.Experiment{e}
	}
	for _, e := range todo {
		start := time.Now()
		fig, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := experiment.Print(os.Stdout, fig); err != nil {
			return err
		}
		if csvDir != "" {
			f, err := os.Create(filepath.Join(csvDir, e.ID+".csv"))
			if err != nil {
				return err
			}
			werr := experiment.WriteCSV(f, fig)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
		}
		fmt.Printf("  (%s computed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// parseJammer maps the -jammer name to the campaign's jammer model and the
// protocol engine's adversary kind.
func parseJammer(name string) (experiment.JammerModel, core.JammerKind, error) {
	switch name {
	case "none":
		return experiment.JamNone, core.JamNone, nil
	case "random":
		return experiment.JamRandom, core.JamRandom, nil
	case "reactive":
		return experiment.JamReactive, core.JamReactive, nil
	default:
		return 0, 0, fmt.Errorf("unknown jammer %q", name)
	}
}

// runInstrumented runs one fully instrumented protocol-engine deployment
// (D-NDP followed by M-NDP) and writes the metric snapshot and, optionally,
// the streaming trace. Default deployment: 50 nodes under Table I density.
func runInstrumented(metricsPath, jsonlPath string, seed int64, jammer string, n, q int) error {
	_, jk, err := parseJammer(jammer)
	if err != nil {
		return err
	}
	p := analysis.Defaults()
	if n <= 0 {
		n = 50
	}
	if n != p.N {
		// Shrink the field with the node count so the physical-neighbor
		// density (and with it the protocol behavior) matches Table I.
		f := math.Sqrt(float64(n) / float64(p.N))
		p.FieldWidth *= f
		p.FieldHeight *= f
		p.M = max(10, p.M*n/p.N)
		p.L = max(4, p.L*n/p.N)
		if p.L > p.M {
			p.L = p.M
		}
		p.Q = p.Q * n / p.N
		p.N = n
	}
	if q >= 0 {
		p.Q = q
	} else if p.Q == 0 {
		p.Q = max(1, n/10) // give a reactive jammer codes to chase
	}

	reg := metrics.New()
	// Open both outputs before the (comparatively long) run so path errors
	// fail fast.
	var mout *os.File
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		mout = f
	}
	var sink trace.Sink
	var jsonl *trace.JSONLWriter
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonl = trace.NewJSONLWriter(f)
		sink = jsonl
	}

	net, err := core.NewNetwork(core.NetworkConfig{
		Params:  p,
		Seed:    seed,
		Jammer:  jk,
		Trace:   sink,
		Metrics: reg,
	})
	if err != nil {
		return err
	}
	if _, err := net.CompromiseRandom(p.Q); err != nil {
		return err
	}
	if err := net.RunDNDP(1); err != nil {
		return err
	}
	if err := net.RunMNDP(1); err != nil {
		return err
	}
	if jsonl != nil {
		if err := jsonl.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s\n", jsonl.Written(), jsonlPath)
	}

	snap := reg.Snapshot()
	if mout != nil {
		var err error
		if strings.HasSuffix(metricsPath, ".json") {
			err = metrics.WriteJSON(mout, snap)
		} else {
			err = metrics.WritePrometheus(mout, snap)
		}
		if cerr := mout.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("metrics: %d counters, %d gauges, %d histograms -> %s\n",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms), metricsPath)
	}
	fmt.Printf("instrumented run: n=%d m=%d l=%d q=%d, %s jamming, %d pairs discovered\n",
		p.N, p.M, p.L, p.Q, jk, len(net.Discoveries()))
	return nil
}

func runPoint(runs int, seed int64, jammer string, n, q int) error {
	jm, _, err := parseJammer(jammer)
	if err != nil {
		return err
	}
	p := analysis.Defaults()
	if n > 0 {
		p.N = n
	}
	if q >= 0 {
		p.Q = q
	}
	m, err := experiment.MeasurePoint(experiment.PointConfig{
		Params: p,
		Jammer: jm,
		Runs:   runs,
		Seed:   seed,
	})
	if err != nil {
		return err
	}
	lower, upper := analysis.DNDPBounds(p)
	fmt.Printf("point measurement: n=%d m=%d l=%d q=%d ν=%d, %s jamming, %d runs\n\n",
		p.N, p.M, p.L, p.Q, p.Nu, jm, runs)
	fmt.Printf("  P̂_D    = %.4f ± %.4f   (Theorem 1: [%.4f, %.4f])\n", m.PD, m.PDCI, lower, upper)
	fmt.Printf("  P̂_M    = %.4f ± %.4f\n", m.PM, m.PMCI)
	fmt.Printf("  P̂      = %.4f ± %.4f\n", m.PHat, m.PHatCI)
	fmt.Printf("  T̄_D    = %.4f s         (Theorem 2: %.4f s; P50 %.4f, P95 %.4f)\n",
		m.TD, analysis.DNDPLatency(p), m.TD50, m.TD95)
	fmt.Printf("  T̄_M    = %.4f s\n", m.TM)
	fmt.Printf("  T̄      = %.4f s\n", m.TBar)
	fmt.Printf("  g      = %.2f physical neighbors, %.0f edges/run, %.0f compromised codes\n",
		m.AvgDegree, m.Edges, m.CompromisedCodes)
	return nil
}
