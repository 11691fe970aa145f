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
	"repro/internal/field"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
)

// JammerModel selects the adversary for a campaign. The zero value is
// reactive jamming, the worst case the paper's figures report.
type JammerModel int

// Jammer models.
const (
	JamReactive JammerModel = iota
	JamNone
	JamRandom
)

func (j JammerModel) String() string {
	switch j {
	case JamNone:
		return "none"
	case JamRandom:
		return "random"
	case JamReactive:
		return "reactive"
	default:
		return "unknown"
	}
}

// PointConfig configures the measurement of one parameter point.
type PointConfig struct {
	Params analysis.Params
	Jammer JammerModel
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
	type runResult struct {
		measure PointMeasure
		tdSum   float64
		tdCount int
		tdHist  *stats.Histogram
	}
	// Latency histogram bounds: the Theorem-2 delay model is bounded by
	// 3t_p + λt_h + transmissions + 2t_key; 3× the mean covers it.
	histHi := 3 * analysis.DNDPLatency(cfg.Params)
	results, err := eachRun(cfg, func(seed int64) (runResult, error) {
		hist, err := stats.NewHistogram(0, histHi, 256)
		if err != nil {
			return runResult{}, err
		}
		one, tdS, tdC, err := measureOnce(cfg, seed, hist)
		return runResult{measure: one, tdSum: tdS, tdCount: tdC, tdHist: hist}, err
	})
	if err != nil {
		return PointMeasure{}, err
	}

	var agg PointMeasure
	var pd, pm, pHat stats.Sample
	var tdSum float64
	var tdCount int
	merged, err := stats.NewHistogram(0, histHi, 256)
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
// tdHist, when non-nil, receives every sampled D-NDP latency.
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

	jammer, err := buildJammer(cfg, compromised, streams.Get("jammer"))
	if err != nil {
		return deployment{}, err
	}

	// D-NDP outcome per physical edge.
	d := deployment{physical: graph, compromised: compromised, logical: &field.Graph{Adj: make([][]int, p.N)}}
	redundancyRng := streams.Get("redundancy")
	latRng := streams.Get("latency")
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
				sample := sampleDNDPLatency(p, latRng)
				d.tdSum += sample
				if tdHist != nil {
					tdHist.Add(sample)
				}
			}
		}
	}
	if len(d.edges) == 0 {
		return deployment{}, fmt.Errorf("experiment: deployment produced no physical edges; increase density")
	}
	return d, nil
}

// measureOnce runs a single seeded deployment and its M-NDP round(s). It
// returns the run's measure and the sum and count of its D-NDP latency
// samples; tdHist, when non-nil, receives every sample.
func measureOnce(cfg PointConfig, seed int64, tdHist *stats.Histogram) (PointMeasure, float64, int, error) {
	d, err := deploy(cfg, seed, tdHist)
	if err != nil {
		return PointMeasure{}, 0, 0, err
	}
	p := cfg.Params
	logical, edges := d.logical, d.edges

	// M-NDP outcome per physical edge: an indirect logical path of at most
	// ν hops (excluding the direct logical edge, if any).
	mSucc := 0
	either := d.dSucc
	newEdges := 0
	for _, e := range edges {
		direct := slices.Contains(logical.Adj[e.u], e.v)
		if _, ok := logical.HopDistance(e.u, e.v, p.Nu, true); ok {
			mSucc++
			if !direct {
				either++
				newEdges++
			}
		}
	}
	if cfg.IterateMNDP && newEdges > 0 {
		// Close the logical graph under repeated M-NDP rounds.
		for {
			added := 0
			for _, e := range edges {
				if slices.Contains(logical.Adj[e.u], e.v) {
					continue
				}
				if _, ok := logical.HopDistance(e.u, e.v, p.Nu, true); ok {
					logical.Adj[e.u] = append(logical.Adj[e.u], e.v)
					logical.Adj[e.v] = append(logical.Adj[e.v], e.u)
					added++
				}
			}
			if added == 0 {
				break
			}
		}
		either = 0
		mSucc = 0
		for _, e := range edges {
			if slices.Contains(logical.Adj[e.u], e.v) {
				either++
			}
			if _, ok := logical.HopDistance(e.u, e.v, p.Nu, true); ok {
				mSucc++
			}
		}
	}

	total := float64(len(edges))
	return PointMeasure{
		PD:               float64(d.dSucc) / total,
		PM:               float64(mSucc) / total,
		PHat:             float64(either) / total,
		AvgDegree:        d.physical.AvgDegree(),
		CompromisedCodes: float64(d.compromised.Len()),
		Edges:            total,
	}, d.tdSum, d.dSucc, nil
}

func buildJammer(cfg PointConfig, compromised *codepool.CodeSet, rng *rand.Rand) (radio.Jammer, error) {
	switch cfg.Jammer {
	case JamNone:
		return radio.NoJammer{}, nil
	case JamReactive:
		return radio.NewReactiveJammer(compromised), nil
	case JamRandom:
		return radio.NewRandomJammer(cfg.Params.Z, cfg.Params.Mu, compromised, rng)
	default:
		return nil, fmt.Errorf("experiment: unknown jammer model %d", cfg.Jammer)
	}
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
		if !jammer.TryJam(radio.Transmission{Code: c, Kind: 1}) {
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
	for kind := 2; kind <= 4; kind++ {
		if jammer.TryJam(radio.Transmission{Code: c, Kind: kind}) {
			return false
		}
	}
	return true
}

// sampleDNDPLatency draws one latency sample from the Theorem-2 model:
// three U[0,t_p] delays plus one U[0,λ·t_h] scan, the two authentication
// airtimes, and two key computations.
func sampleDNDPLatency(p analysis.Params, rng *rand.Rand) float64 {
	tp := p.TProcess()
	scan := p.Lambda() * p.THello()
	delays := rng.Float64()*tp + rng.Float64()*tp + rng.Float64()*tp + rng.Float64()*scan
	authTx := 2 * float64(p.ChipLen) * p.AuthBits() / p.ChipRate
	return delays + authTx + 2*p.TKey
}
