// Package experiment reproduces every table and figure of the paper's
// evaluation (§VI-B). The figure campaigns run the same Monte-Carlo
// procedure as the authors' simulator: place n nodes on the field, run the
// random code pre-distribution, compromise q random nodes, decide each
// physical-neighbor pair's D-NDP outcome under the jamming model of
// Theorem 1, then decide M-NDP outcomes over the resulting logical graph,
// averaging over independent seeded runs. Latency is sampled from the
// Theorem-2 delay model (which the event-driven protocol engine in
// internal/core matches; see core's tests).
package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/analysis"
	"repro/internal/codepool"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// JamReactive is core.JamReactive, the zero PointConfig.Jammer; the
// name stays here because the perfbench harness uses it.
const JamReactive = core.JamReactive

// PointConfig configures the measurement of one parameter point.
type PointConfig struct {
	Params analysis.Params
	// Jammer selects the adversary; the campaign has no simulation clock,
	// so core.JamSweep is refused.
	Jammer core.JammerKind
	// Runs is the number of independent seeded repetitions (the paper
	// averages 100 runs per point).
	Runs int
	Seed int64
	// IterateMNDP repeats M-NDP rounds until no new logical edges appear
	// (the paper's protocol runs periodically; a single round gives the
	// Theorem-3 lower bound).
	IterateMNDP bool
	// DisableRedundancy models responders that pick a single shared code
	// (ablation of the §V-B redundancy design).
	DisableRedundancy bool
}

// PointMeasure aggregates one parameter point over all runs.
type PointMeasure struct {
	PD   float64 // D-NDP discovery probability over physical edges
	PM   float64 // M-NDP discovery probability over physical edges
	PHat float64 // JR-SND combined: discovered by either protocol
	TD   float64 // mean D-NDP latency (s), Theorem-2 delay model sampled
	TD50 float64 // median sampled D-NDP latency (s)
	TD95 float64 // 95th-percentile sampled D-NDP latency (s)
	TM   float64 // M-NDP latency (s), Theorem 4 with measured degree
	TBar float64 // max(TD, TM)

	// 95% Student-t confidence-interval half-widths of the per-run means.
	PDCI   float64
	PMCI   float64
	PHatCI float64

	AvgDegree        float64 // measured g
	CompromisedCodes float64 // mean |compromised pool codes|
	Edges            float64 // mean physical edges per run
}

// MeasurePoint runs the Monte-Carlo campaign for one parameter point.
func MeasurePoint(cfg PointConfig) (PointMeasure, error) {
	results, err := eachRun(cfg, func(seed int64) (runRecord, error) {
		return measureOnce(cfg, seed)
	})
	if err != nil {
		return PointMeasure{}, err
	}

	var agg PointMeasure
	var pd, pm, pHat stats.Sample
	var tdSum float64
	var tdCount int
	merged, err := newLatencyHist(cfg.Params)
	if err != nil {
		return PointMeasure{}, err
	}
	for _, res := range results {
		one := res.measure
		pd.Add(one.PD)
		pm.Add(one.PM)
		pHat.Add(one.PHat)
		agg.AvgDegree += one.AvgDegree
		agg.CompromisedCodes += one.CompromisedCodes
		agg.Edges += one.Edges
		tdSum += res.tdSum
		tdCount += res.tdCount
		merged.Merge(res.tdHist)
	}
	if merged.Count() > 0 {
		agg.TD50 = merged.Quantile(0.5)
		agg.TD95 = merged.Quantile(0.95)
	}
	r := float64(cfg.Runs)
	agg.PD, agg.PDCI = pd.Mean(), pd.CI95()
	agg.PM, agg.PMCI = pm.Mean(), pm.CI95()
	agg.PHat, agg.PHatCI = pHat.Mean(), pHat.CI95()
	agg.AvgDegree /= r
	agg.CompromisedCodes /= r
	agg.Edges /= r
	if tdCount > 0 {
		agg.TD = tdSum / float64(tdCount)
	} else {
		agg.TD = analysis.DNDPLatency(cfg.Params)
	}
	agg.TM = analysis.MNDPLatency(cfg.Params, cfg.Params.Nu, agg.AvgDegree)
	agg.TBar = max(agg.TD, agg.TM)
	return agg, nil
}

// eachRun validates cfg and calls once for each of cfg.Runs independent
// runs, seeded Seed+run·7919. The runs execute in parallel; the results
// come back in run order, so aggregating them sequentially keeps every
// campaign bit-for-bit deterministic. The first error in run order wins.
func eachRun[T any](cfg PointConfig, once func(seed int64) (T, error)) ([]T, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if cfg.Runs < 1 {
		return nil, fmt.Errorf("experiment: Runs=%d must be >= 1", cfg.Runs)
	}
	results := make([]T, cfg.Runs)
	errs := make([]error, cfg.Runs)
	workers := min(runtime.GOMAXPROCS(0), cfg.Runs)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range next {
				results[run], errs[run] = once(cfg.Seed + int64(run)*7919)
			}
		}()
	}
	for run := 0; run < cfg.Runs; run++ {
		next <- run
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// edge is one honest physical-neighbor pair, u < v.
type edge struct{ u, v int }

// deployment is the first half of every campaign run: the placement, the
// code pre-distribution and compromise, and the D-NDP outcome of every
// honest physical edge.
type deployment struct {
	physical    *field.Graph
	compromised *codepool.CodeSet
	edges       []edge       // honest physical edges, in (u, v) order
	logical     *field.Graph // the edges D-NDP discovered
	dSucc       int          // D-NDP successes, one latency sample each
	tdSum       float64      // sum of the sampled D-NDP latencies
}

// deploy runs a single seeded deployment up to and including D-NDP.
// tdHist receives every sampled D-NDP latency.
func deploy(cfg PointConfig, seed int64, tdHist *stats.Histogram) (deployment, error) {
	p := cfg.Params
	streams := sim.NewStreams(seed)

	area, err := field.New(p.FieldWidth, p.FieldHeight)
	if err != nil {
		return deployment{}, err
	}
	positions := area.PlaceUniform(streams.Get("placement"), p.N)
	graph, err := field.PhysicalGraph(area, positions, p.Range)
	if err != nil {
		return deployment{}, err
	}

	pool, err := codepool.New(codepool.Config{N: p.N, M: p.M, L: p.L, Rand: streams.Get("codepool")})
	if err != nil {
		return deployment{}, err
	}
	compromisedNodes, compromised, err := pool.CompromiseRandom(streams.Get("compromise"), p.Q)
	if err != nil {
		return deployment{}, err
	}
	isCompromised := make([]bool, p.N)
	for _, i := range compromisedNodes {
		isCompromised[i] = true
	}

	jammer, err := core.NewJammer(cfg.Jammer, p, compromised, streams.Get("jammer"), nil)
	if err != nil {
		return deployment{}, err
	}

	// D-NDP outcome per physical edge.
	d := deployment{physical: graph, compromised: compromised, logical: &field.Graph{Adj: make([][]int, p.N)}}
	redundancyRng := streams.Get("redundancy")
	latRng := streams.Get("latency")
	// The Theorem-2 delay model's constants: t_p, the λ·t_h scan, the two
	// authentication airtimes and the two key computations.
	tp, scan := p.TProcess(), p.Lambda()*p.THello()
	authTx, keys := 2*float64(p.ChipLen)*p.AuthBits()/p.ChipRate, 2*p.TKey
	// Per-edge scratch: two nodes share at most m codes.
	shared := make([]codepool.CodeID, 0, p.M)
	received := make([]codepool.CodeID, 0, p.M)
	for u := 0; u < p.N; u++ {
		if isCompromised[u] {
			continue // compromised nodes do not run the honest protocol
		}
		for _, v := range graph.Adj[u] {
			if v <= u || isCompromised[v] {
				continue
			}
			d.edges = append(d.edges, edge{u, v})
			shared = pool.AppendShared(shared[:0], u, v)
			if dndpSucceeds(shared, received, jammer, cfg.DisableRedundancy, redundancyRng) {
				d.dSucc++
				d.logical.Adj[u] = append(d.logical.Adj[u], v)
				d.logical.Adj[v] = append(d.logical.Adj[v], u)
				// Three U[0,t_p] delays plus one U[0,λ·t_h] scan.
				delays := latRng.Float64()*tp + latRng.Float64()*tp + latRng.Float64()*tp + latRng.Float64()*scan
				sample := delays + authTx + keys
				d.tdSum += sample
				tdHist.Add(sample)
			}
		}
	}
	if len(d.edges) == 0 {
		return deployment{}, fmt.Errorf("experiment: deployment produced no physical edges; increase density")
	}
	return d, nil
}

// runRecord is one seeded run: its measure, its hop counts and its D-NDP
// latency samples.
type runRecord struct {
	measure PointMeasure
	// m[ν-1] counts the honest edges with an indirect logical path of at
	// most ν hops; either[ν-1] counts those that are logical edges or have
	// such a path. ν runs to Params.Nu.
	m, either []int
	tdSum     float64
	tdCount   int
	tdHist    *stats.Histogram
}

// measureOnce runs a single seeded deployment and its M-NDP round(s).
func measureOnce(cfg PointConfig, seed int64) (runRecord, error) {
	tdHist, err := newLatencyHist(cfg.Params)
	if err != nil {
		return runRecord{}, err
	}
	d, err := deploy(cfg, seed, tdHist)
	if err != nil {
		return runRecord{}, err
	}
	nu := cfg.Params.Nu
	logical, edges := d.logical, d.edges
	m, either := hopCounts(logical, edges, nu)
	if cfg.IterateMNDP && either[nu-1] > d.dSucc {
		// Close the logical graph under repeated M-NDP rounds. The loop
		// stops only when no non-direct edge has an indirect path, so the
		// recount's either is the closed graph's logical edges.
		for {
			added := 0
			for _, e := range edges {
				if slices.Contains(logical.Adj[e.u], e.v) {
					continue
				}
				if _, ok := logical.HopDistance(e.u, e.v, nu, true); ok {
					logical.Adj[e.u] = append(logical.Adj[e.u], e.v)
					logical.Adj[e.v] = append(logical.Adj[e.v], e.u)
					added++
				}
			}
			if added == 0 {
				break
			}
		}
		m, either = hopCounts(logical, edges, nu)
	}

	total := float64(len(edges))
	return runRecord{
		measure: PointMeasure{
			PD:               float64(d.dSucc) / total,
			PM:               float64(m[nu-1]) / total,
			PHat:             float64(either[nu-1]) / total,
			AvgDegree:        d.physical.AvgDegree(),
			CompromisedCodes: float64(d.compromised.Len()),
			Edges:            total,
		},
		m:       m,
		either:  either,
		tdSum:   d.tdSum,
		tdCount: d.dSucc,
		tdHist:  tdHist,
	}, nil
}

// hopCounts runs one hop search per edge, bounded by maxNu, and returns
// cumulative counts for every ν ≤ maxNu (index ν-1): m[ν-1] edges have an
// indirect logical path of at most ν hops, and either[ν-1] edges are
// logical edges or have such a path.
func hopCounts(logical *field.Graph, edges []edge, maxNu int) (m, either []int) {
	m, either = make([]int, maxNu), make([]int, maxNu)
	for _, e := range edges {
		dist, ok := logical.HopDistance(e.u, e.v, maxNu, true)
		if ok {
			m[dist-1]++
		}
		switch {
		case slices.Contains(logical.Adj[e.u], e.v):
			either[0]++
		case ok:
			either[dist-1]++
		}
	}
	for i := 1; i < maxNu; i++ {
		m[i] += m[i-1]
		either[i] += either[i-1]
	}
	return m, either
}

// dndpSucceeds plays out the x sub-sessions of one D-NDP execution under
// the message-level jamming model: a sub-session on code c survives when
// the HELLO and all three follow-up messages escape jamming; the execution
// succeeds when any sub-session survives (Theorem 1). received is scratch
// space; its contents are overwritten.
func dndpSucceeds(shared, received []codepool.CodeID, jammer radio.Jammer, disableRedundancy bool, rng *rand.Rand) bool {
	if len(shared) == 0 {
		return false
	}
	// First the HELLOs: the responder can only use codes whose HELLO copy
	// it actually decoded.
	received = received[:0]
	for _, c := range shared {
		if !jammer.TryJam(radio.Transmission{Code: c, Kind: wire.KindHello}) {
			received = append(received, c)
		}
	}
	if len(received) == 0 {
		return false
	}
	if disableRedundancy {
		pick := rng.Intn(len(received))
		received = received[pick : pick+1]
	}
	for _, c := range received {
		if subSessionSurvives(c, jammer) {
			return true
		}
	}
	return false
}

// subSessionSurvives checks the three post-HELLO messages of one
// sub-session.
func subSessionSurvives(c codepool.CodeID, jammer radio.Jammer) bool {
	for kind := wire.KindConfirm; kind <= wire.KindAuth2; kind++ {
		if jammer.TryJam(radio.Transmission{Code: c, Kind: kind}) {
			return false
		}
	}
	return true
}

// newLatencyHist returns an empty histogram for sampled D-NDP latencies.
// The Theorem-2 delay model is bounded by 3t_p + λt_h + transmissions +
// 2t_key; 3× the mean covers it.
func newLatencyHist(p analysis.Params) (*stats.Histogram, error) {
	return stats.NewHistogram(0, 3*analysis.DNDPLatency(p), 256)
}
