package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/codepool"
	"repro/internal/experiment"
	"repro/internal/field"
	"repro/internal/radio"
	"repro/internal/sim"
)

// figureSweep is the campaign workload: Fig. 2(a) sweeps m from 20 to
// 200 (code-pool build and intersection grow with m) and Fig. 5(b)
// sweeps ν from 1 to 8 at q = 100, where the hop search explores
// furthest. Both run at Table I defaults under the reactive jammer.
type figureSweep struct {
	base analysis.Params
}

// figureRuns is the deployments per point, so a pass is the two sweeps'
// 18 deployments.
const figureRuns = 1

// pointSeedStride mirrors experiment's per-point seed stride (figures.go,
// sweep); the pins, taken from the figure calls, fail loudly if it
// drifts.
const pointSeedStride = 104729

func (f *figureSweep) setup(seed int64) error {
	if f.base.N == 0 {
		f.base = analysis.Defaults()
	}
	// One deployment at the defaults warms the heap and any lazily built
	// state before timing.
	_, err := experiment.MeasurePoint(experiment.PointConfig{
		Params: f.base, Jammer: experiment.JamReactive, Runs: figureRuns, Seed: seed,
	})
	return err
}

func (f *figureSweep) close() {}

// sweepFigures are the two swept figures: the library call, the x values
// and how each x sets the point's parameters (internal/experiment
// figures.go).
var sweepFigures = []struct {
	id     string
	run    func(experiment.SweepConfig) (experiment.Figure, error)
	xs     []float64
	mutate func(*analysis.Params, float64)
}{
	{"fig2a", experiment.Fig2a, []float64{20, 40, 60, 80, 100, 120, 140, 160, 180, 200}, func(p *analysis.Params, x float64) { p.M = int(x) }},
	{"fig5b", experiment.Fig5b, []float64{1, 2, 3, 4, 5, 6, 7, 8}, func(p *analysis.Params, x float64) {
		p.Q = 100
		p.Nu = int(x)
	}},
}

// pass measures every point of both figures with experiment.MeasurePoint
// as experiment.Fig2a and Fig5b sweep them (same per-point seeds), one
// timed unit per point, and assembles the figures' series.
//
// It times the points rather than the two figure calls whole because the
// calibration (see clock) then samples the host between 18 units of
// about 130 ms instead of between two of about 1.2 s; contention on a
// shared host changes within a second, and the coarse units spread the
// ten-seed ops_per_s about twice as wide. The pins are the output of
// Fig2a and Fig5b themselves (figures), so every run's check pass holds
// this loop to the library's.
func (f *figureSweep) pass(ctx context.Context, seed int64, clk *clock) (passResult, error) {
	var pr passResult
	for _, fig := range sweepFigures {
		ms := make([]experiment.PointMeasure, len(fig.xs))
		ps := make([]analysis.Params, len(fig.xs))
		for i, x := range fig.xs {
			if err := ctx.Err(); err != nil {
				return passResult{}, err
			}
			p := f.base
			fig.mutate(&p, x)
			ps[i] = p
			err := clk.time(figureRuns, func() (err error) {
				ms[i], err = experiment.MeasurePoint(experiment.PointConfig{
					Params: p, Jammer: experiment.JamReactive, Runs: figureRuns, Seed: seed + int64(i)*pointSeedStride,
				})
				return err
			})
			if err != nil {
				return passResult{}, fmt.Errorf("%s x=%v: %w", fig.id, x, err)
			}
		}
		pr.out = append(pr.out, figureOutputs(assembleFigure(fig.id, fig.xs, ms, ps))...)
		pr.ops += len(fig.xs) * figureRuns
	}
	return pr, nil
}

// figures returns every series value of experiment.Fig2a and Fig5b
// themselves, for the pins.
func (f *figureSweep) figures(seed int64) (outputs, error) {
	var out outputs
	for _, fig := range sweepFigures {
		got, err := fig.run(experiment.SweepConfig{Base: f.base, Runs: figureRuns, Seed: seed, Jammer: experiment.JamReactive})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fig.id, err)
		}
		out = append(out, figureOutputs(got)...)
	}
	return out, nil
}

// figureOutputs flattens every series value of the figures.
func figureOutputs(figs ...experiment.Figure) outputs {
	var out outputs
	for _, fig := range figs {
		for _, s := range fig.Series {
			for i, y := range s.Y {
				out = append(out, value{Key: fmt.Sprintf("%s/%s/x=%g", fig.ID, s.Label, s.X[i]), Value: y})
			}
		}
	}
	return out
}

func (f *figureSweep) replay(ctx context.Context, seed int64, tr *tracer, parent *span) (outputs, error) {
	var out outputs
	for _, fig := range sweepFigures {
		sp := tr.start(parent, "experiment.figure")
		ms := make([]experiment.PointMeasure, len(fig.xs))
		ps := make([]analysis.Params, len(fig.xs))
		for i, x := range fig.xs {
			if err := ctx.Err(); err != nil {
				sp.end()
				return nil, err
			}
			p := f.base
			fig.mutate(&p, x)
			ps[i] = p
			m, err := replayPoint(tr, sp, p, seed+int64(i)*pointSeedStride)
			if err != nil {
				sp.end()
				return nil, fmt.Errorf("%s x=%v: %w", fig.id, x, err)
			}
			ms[i] = m
		}
		out = append(out, figureOutputs(assembleFigure(fig.id, fig.xs, ms, ps))...)
		sp.end()
	}
	return out, nil
}

// assembleFigure builds the series experiment.Fig2a / Fig5b report from
// the measured points.
func assembleFigure(id string, xs []float64, ms []experiment.PointMeasure, ps []analysis.Params) experiment.Figure {
	series := func(label string, y func(i int) float64) experiment.Series {
		s := experiment.Series{Label: label, X: xs, Y: make([]float64, len(xs))}
		for i := range xs {
			s.Y[i] = y(i)
		}
		return s
	}
	if id == "fig2a" {
		return experiment.Figure{ID: id, Series: []experiment.Series{
			series("D-NDP (sim)", func(i int) float64 { return ms[i].PD }),
			series("M-NDP (sim)", func(i int) float64 { return ms[i].PM }),
			series("JR-SND (sim)", func(i int) float64 { return ms[i].PHat }),
			series("D-NDP (Theorem 1, reactive)", func(i int) float64 { return analysis.DNDPReactive(ps[i]) }),
			series("M-NDP (Theorem 3 bound)", func(i int) float64 {
				return analysis.MNDPLowerBound(analysis.DNDPReactive(ps[i]), ms[i].AvgDegree)
			}),
		}}
	}
	return experiment.Figure{ID: id, Series: []experiment.Series{
		series("D-NDP T̄ (sim)", func(i int) float64 { return ms[i].TD }),
		series("M-NDP T̄ (Theorem 4, measured g)", func(i int) float64 { return ms[i].TM }),
		series("JR-SND T̄ = max", func(i int) float64 { return ms[i].TBar }),
	}}
}

// replayPoint is experiment.MeasurePoint with one run, one span per stage
// of the deployment. It finishes the point the way MeasurePoint's
// aggregation does for a single run, so P̂ comes out bit-for-bit
// identical.
func replayPoint(tr *tracer, parent *span, p analysis.Params, seed int64) (experiment.PointMeasure, error) {
	sp := tr.start(parent, "experiment.measure_point")
	defer sp.end()
	m, tdSum, tdCount, err := replayDeployment(tr, sp, p, seed)
	if err != nil {
		return experiment.PointMeasure{}, err
	}
	if tdCount > 0 {
		m.TD = tdSum / float64(tdCount)
	} else {
		m.TD = analysis.DNDPLatency(p)
	}
	m.TM = analysis.MNDPLatency(p, p.Nu, m.AvgDegree)
	m.TBar = m.TD
	if m.TM > m.TBar {
		m.TBar = m.TM
	}
	return m, nil
}

type edge struct{ u, v int }

// replayDeployment replays one seeded deployment stage by stage, each
// stage batched over all edges so it yields one span per run. It returns
// the run's measure and the sum and count of its Theorem-2 latency
// samples.
func replayDeployment(tr *tracer, parent *span, p analysis.Params, seed int64) (experiment.PointMeasure, float64, int, error) {
	sp := tr.start(parent, "sim.new_streams")
	streams := sim.NewStreams(seed)
	sp.end()

	sp = tr.start(parent, "field.physical_graph")
	deploy, err := field.New(p.FieldWidth, p.FieldHeight)
	var graph *field.Graph
	if err == nil {
		graph, err = field.PhysicalGraph(deploy, deploy.PlaceUniform(streams.Get("placement"), p.N), p.Range)
	}
	sp.end()
	if err != nil {
		return experiment.PointMeasure{}, 0, 0, err
	}

	sp = tr.start(parent, "codepool.new")
	pool, err := codepool.New(codepool.Config{N: p.N, M: p.M, L: p.L, Rand: streams.Get("codepool")})
	sp.end()
	if err != nil {
		return experiment.PointMeasure{}, 0, 0, err
	}

	sp = tr.start(parent, "codepool.compromise")
	compromisedNodes, compromised, err := pool.CompromiseRandom(streams.Get("compromise"), p.Q)
	sp.end()
	if err != nil {
		return experiment.PointMeasure{}, 0, 0, err
	}
	isCompromised := make([]bool, p.N)
	for _, i := range compromisedNodes {
		isCompromised[i] = true
	}
	jammer := radio.NewReactiveJammer(compromised)

	var edges []edge
	for u := 0; u < p.N; u++ {
		if isCompromised[u] {
			continue // compromised nodes do not run the honest protocol
		}
		for _, v := range graph.Adj[u] {
			if v > u && !isCompromised[v] {
				edges = append(edges, edge{u, v})
			}
		}
	}
	if len(edges) == 0 {
		return experiment.PointMeasure{}, 0, 0, fmt.Errorf("deployment produced no physical edges")
	}

	sp = tr.start(parent, "codepool.shared")
	shared := make([][]codepool.CodeID, len(edges))
	empty := 0
	for i, e := range edges {
		shared[i] = pool.Shared(e.u, e.v)
		if len(shared[i]) == 0 {
			empty++
		}
	}
	sp.end()
	tr.count("codepool.shared_calls", float64(len(edges)))
	tr.count("codepool.shared_empty", float64(empty))

	sp = tr.start(parent, "radio.tryjam")
	ok := make([]bool, len(edges))
	calls, jammed := 0, 0
	for i := range edges {
		ok[i] = dndpVerdict(shared[i], jammer, &calls, &jammed)
	}
	sp.end()
	tr.count("radio.tryjam_calls", float64(calls))
	tr.count("radio.jammed", float64(jammed))

	// Logical graph and Theorem-2 latency samples, in edge order.
	latRng := streams.Get("latency")
	logical := &field.Graph{Adj: make([][]int, p.N)}
	var tdSum float64
	dSucc := 0
	for i, e := range edges {
		if !ok[i] {
			continue
		}
		dSucc++
		logical.Adj[e.u] = append(logical.Adj[e.u], e.v)
		logical.Adj[e.v] = append(logical.Adj[e.v], e.u)
		tdSum += dndpLatencySample(p, latRng.Float64)
	}

	sp = tr.start(parent, "field.hop_search")
	found := make([]bool, len(edges))
	nFound := 0
	for i, e := range edges {
		_, found[i] = logical.HopDistance(e.u, e.v, p.Nu, true)
		if found[i] {
			nFound++
		}
	}
	sp.end()
	tr.count("field.hop_search_calls", float64(len(edges)))
	tr.count("field.hop_search_found", float64(nFound))

	either := dSucc
	for i, e := range edges {
		if found[i] && !containsInt(logical.Adj[e.u], e.v) {
			either++
		}
	}
	total := float64(len(edges))
	return experiment.PointMeasure{
		PD:               float64(dSucc) / total,
		PM:               float64(nFound) / total,
		PHat:             float64(either) / total,
		AvgDegree:        graph.AvgDegree(),
		CompromisedCodes: float64(compromised.Len()),
		Edges:            total,
	}, tdSum, dSucc, nil
}

// dndpVerdict plays out the x sub-sessions of one D-NDP execution under
// the message-level jamming model (Theorem 1), with the same TryJam call
// sequence as the campaign engine: HELLOs on every shared code first,
// then the three follow-up messages of each surviving sub-session until
// one survives.
func dndpVerdict(shared []codepool.CodeID, jammer radio.Jammer, calls, jammed *int) bool {
	try := func(c codepool.CodeID, kind int) bool {
		*calls++
		if jammer.TryJam(radio.Transmission{Code: c, Kind: kind}) {
			*jammed++
			return true
		}
		return false
	}
	var received []codepool.CodeID
	for _, c := range shared {
		if !try(c, 1) {
			received = append(received, c)
		}
	}
	for _, c := range received {
		survived := true
		for kind := 2; kind <= 4; kind++ {
			if try(c, kind) {
				survived = false
				break
			}
		}
		if survived {
			return true
		}
	}
	return false
}

// dndpLatencySample draws one Theorem-2 latency sample exactly as the
// campaign engine does.
func dndpLatencySample(p analysis.Params, u func() float64) float64 {
	tp := p.TProcess()
	scan := p.Lambda() * p.THello()
	delays := u()*tp + u()*tp + u()*tp + u()*scan
	authTx := 2 * float64(p.ChipLen) * p.AuthBits() / p.ChipRate
	return delays + authTx + 2*p.TKey
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// diverge re-measures the diverging point with experiment.MeasurePoint
// and compares it to the replay stage by stage. When the two agree, the
// figure call itself (its sweep seeding or series assembly) differs.
func (f *figureSweep) diverge(seed int64, key string) string {
	for _, fig := range sweepFigures {
		for i, x := range fig.xs {
			if !strings.HasPrefix(key, fig.id+"/") || !strings.HasSuffix(key, fmt.Sprintf("/x=%g", x)) {
				continue
			}
			p := f.base
			fig.mutate(&p, x)
			pointSeed := seed + int64(i)*pointSeedStride
			got, err := replayPoint(newTracer(), nil, p, pointSeed)
			if err != nil {
				return fmt.Sprintf("%s x=%g (replay failed: %v)", fig.id, x, err)
			}
			want, err := experiment.MeasurePoint(experiment.PointConfig{
				Params: p, Jammer: experiment.JamReactive, Runs: figureRuns, Seed: pointSeed,
			})
			if err != nil {
				return fmt.Sprintf("%s x=%g (MeasurePoint failed: %v)", fig.id, x, err)
			}
			if stage := firstDivergentStage(want, got); stage != "" {
				return fmt.Sprintf("%s in %s x=%g (seed %d)", stage, fig.id, x, pointSeed)
			}
			return fmt.Sprintf("experiment.%s (sweep seeding or series assembly) at x=%g", fig.id, x)
		}
	}
	return "experiment.figure (series assembly)"
}

// firstDivergentStage compares one point's outcome in campaign stage
// order.
func firstDivergentStage(want, got experiment.PointMeasure) string {
	switch {
	case want.AvgDegree != got.AvgDegree:
		return "field.physical_graph"
	case want.CompromisedCodes != got.CompromisedCodes:
		return "codepool.new/codepool.compromise"
	case want.Edges != got.Edges:
		return "codepool.compromise"
	case want.PD != got.PD:
		return "codepool.shared/radio.tryjam"
	case want.PM != got.PM:
		return "field.hop_search"
	case want.PHat != got.PHat:
		return "experiment.measure_point (M-NDP union)"
	case want.TD != got.TD:
		return "experiment.measure_point (latency sampling)"
	}
	return ""
}
