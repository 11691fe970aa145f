package experiment

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
)

// Extension experiments beyond the paper's figures: the multi-antenna
// future work named in §IV-A and the dynamic-ν adjustment suggested in
// §VI-B.

// ExtAntennas sweeps the number of parallel receive chains k and reports
// the generalized Theorem 2 latency T̄_D(k) plus the HELLO round budget
// r(k). k = 1 is the paper's baseline.
func ExtAntennas(base analysis.Params) (Figure, error) {
	if base.N == 0 {
		base = analysis.Defaults()
	}
	if err := base.Validate(); err != nil {
		return Figure{}, fmt.Errorf("experiment: %w", err)
	}
	ks := []float64{1, 2, 3, 4, 6, 8}
	lat := Series{Label: "T̄_D(k) (generalized Theorem 2)", X: ks, Y: make([]float64, len(ks))}
	rounds := Series{Label: "r(k) (HELLO rounds)", X: ks, Y: make([]float64, len(ks))}
	floor := Series{Label: "tx+key floor", X: ks, Y: make([]float64, len(ks))}
	floorVal := 2*float64(base.ChipLen)*base.AuthBits()/base.ChipRate + 2*base.TKey
	for i, k := range ks {
		lat.Y[i] = analysis.DNDPLatencyAntennas(base, int(k))
		rounds.Y[i] = float64(analysis.HelloRoundsAntennas(base, int(k)))
		floor.Y[i] = floorVal
	}
	return Figure{
		ID:     "ext-antennas",
		Title:  "Extension — D-NDP latency with k parallel receive chains (§IV-A future work)",
		XLabel: "k (receive chains)",
		YLabel: "T̄_D (s)",
		Series: []Series{lat, rounds, floor},
		Notes: []string{
			"k=1 reduces to Theorem 2; the identification term divides by k",
			"latency approaches the transmission + key-computation floor as k grows",
		},
	}, nil
}

// ExtZ sweeps the jammer's parallel-emitter budget z under *random*
// jamming, where z matters (Theorem 1's β = z(1+μ)/(μ·c)); reactive
// jamming is insensitive to z. The measured P̂_D must track the Theorem-1
// upper bound P̂+ and collapse toward the reactive floor as z grows.
func ExtZ(cfg SweepConfig) (Figure, error) {
	cfg = cfg.withDefaults()
	cfg.Jammer = core.JamRandom
	xs := []float64{0, 5, 10, 20, 40, 80, 160}
	ms, ps, err := sweep(cfg, xs, func(p *analysis.Params, x float64) { p.Z = int(x) })
	if err != nil {
		return Figure{}, err
	}
	n := len(xs)
	sim := Series{Label: "D-NDP (sim, random jam)", X: xs, Y: make([]float64, n)}
	upper := Series{Label: "Theorem 1 P̂+ (random)", X: xs, Y: make([]float64, n)}
	floor := Series{Label: "Theorem 1 P̂− (reactive floor)", X: xs, Y: make([]float64, n)}
	for i := range xs {
		sim.Y[i] = ms[i].PD
		lo, up := analysis.DNDPBounds(ps[i])
		upper.Y[i] = up
		floor.Y[i] = lo
	}
	return Figure{
		ID:     "ext-z",
		Title:  "Extension — impact of the jammer's emitter budget z (random jamming)",
		XLabel: "z (parallel jamming signals)",
		YLabel: "P̂_D",
		Series: []Series{sim, upper, floor},
		Notes: []string{
			"z=0 recovers the no-jamming sharing probability; large z approaches the reactive floor",
			"the paper bounds z ≪ N since unbounded emitters defeat any spread-spectrum scheme (§IV-B)",
		},
	}, nil
}

// NuProfile is the per-ν outcome of one campaign: for each hop bound ν in
// [1, MaxNu], the M-NDP and combined probabilities.
type NuProfile struct {
	MaxNu int
	PD    float64
	PM    []float64 // index ν-1
	PHat  []float64 // index ν-1
}

// MeasureNuProfile runs the campaign once per seed at ν = maxNu and reads
// every hop bound ν ≤ maxNu off the run's hop counts (one search per
// edge). It is how Fig. 5(a) and the adaptive-ν experiment share work.
// M-NDP is a single round; cfg.Params.Nu and cfg.IterateMNDP are not read.
func MeasureNuProfile(cfg PointConfig, maxNu int) (NuProfile, error) {
	if maxNu < 1 {
		return NuProfile{}, fmt.Errorf("experiment: maxNu=%d must be >= 1", maxNu)
	}
	cfg.Params.Nu = maxNu
	cfg.IterateMNDP = false
	runs, err := eachRun(cfg, func(seed int64) (runRecord, error) {
		return measureOnce(cfg, seed)
	})
	if err != nil {
		return NuProfile{}, err
	}
	agg := NuProfile{MaxNu: maxNu, PM: make([]float64, maxNu), PHat: make([]float64, maxNu)}
	for _, one := range runs {
		agg.PD += one.measure.PD
		for i := 0; i < maxNu; i++ {
			agg.PM[i] += float64(one.m[i]) / one.measure.Edges
			agg.PHat[i] += float64(one.either[i]) / one.measure.Edges
		}
	}
	r := float64(cfg.Runs)
	agg.PD /= r
	for i := 0; i < maxNu; i++ {
		agg.PM[i] /= r
		agg.PHat[i] /= r
	}
	return agg, nil
}

// ExtAdaptiveNu reproduces the §VI-B suggestion that nodes dynamically
// raise ν until discovery is satisfactory: for a range of target
// probabilities it reports the ν the analytical controller picks, its
// prediction, and the probability the campaign actually measures at that
// ν.
func ExtAdaptiveNu(cfg SweepConfig, targets []float64, maxNu int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(targets) == 0 {
		targets = []float64{0.5, 0.7, 0.8, 0.9, 0.95, 0.99}
	}
	p := cfg.Base
	// The paper's stressed operating point is 5% compromised nodes
	// (q = 100 at n = 2000, where P̂_D ≈ 0.2); scale with n so reduced
	// deployments stay meaningful.
	p.Q = max(1, p.N/20)
	profile, err := MeasureNuProfile(PointConfig{
		Params: p,
		Jammer: cfg.Jammer,
		Runs:   cfg.Runs,
		Seed:   cfg.Seed,
	}, maxNu)
	if err != nil {
		return Figure{}, err
	}
	chosen := Series{Label: "chosen ν", X: targets, Y: make([]float64, len(targets))}
	predicted := Series{Label: "predicted P̂ (recurrence)", X: targets, Y: make([]float64, len(targets))}
	measured := Series{Label: "measured P̂ at chosen ν", X: targets, Y: make([]float64, len(targets))}
	for i, target := range targets {
		nu, pred := analysis.AdaptiveNu(p, target, maxNu)
		chosen.Y[i] = float64(nu)
		predicted.Y[i] = pred
		measured.Y[i] = profile.PHat[nu-1]
	}
	return Figure{
		ID:     "ext-adaptive-nu",
		Title:  "Extension — dynamic ν adjustment toward a target P̂ (§VI-B suggestion)",
		XLabel: "target P̂",
		YLabel: "ν / P̂",
		Series: []Series{chosen, predicted, measured},
		Notes: []string{
			"controller picks the smallest ν whose predicted P̂ reaches the target",
			"prediction uses the iterated Theorem-3 recurrence (closed form beyond ν=2)",
		},
	}, nil
}
