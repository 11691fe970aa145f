package jrsnd

// Benchmark harness: one BenchmarkExperiments/<id> sub-benchmark per
// registered experiment (Table I, every figure of §VI-B, the validations,
// extensions and baselines), micro-benchmarks for the hot substrate
// operations, and ablation benches for the design choices called out in
// DESIGN.md §6.
//
// Experiment benches run the full n=2000 Monte-Carlo campaign at Runs=1
// per iteration (the paper's 100-run averages are produced by
// cmd/jrsnd-sim); the figure values themselves are pinned by the golden
// CSVs of internal/experiment.

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/chips"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/field"
)

// BenchmarkExperiments runs every registered experiment once per
// iteration, as cmd/jrsnd-sim -exp <id> -runs 1 would.
func BenchmarkExperiments(b *testing.B) {
	cfg := experiment.SweepConfig{Base: analysis.Defaults(), Runs: 1, Seed: 1}
	for _, e := range experiment.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// ablationPoint measures P̂_D with a strong random jammer.
func ablationPoint(b *testing.B, disableRedundancy bool) float64 {
	b.Helper()
	p := analysis.Defaults()
	p.N = 400
	p.L = 20
	p.Q = 40
	p.Z = 30
	p.FieldWidth, p.FieldHeight = 2250, 2250
	m, err := experiment.MeasurePoint(experiment.PointConfig{
		Params:            p,
		Jammer:            core.JamRandom,
		Runs:              3,
		Seed:              1,
		DisableRedundancy: disableRedundancy,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m.PD
}

func BenchmarkAblationRedundancyOn(b *testing.B) {
	var pd float64
	for i := 0; i < b.N; i++ {
		pd = ablationPoint(b, false)
	}
	b.ReportMetric(pd, "P_D")
}

func BenchmarkAblationRedundancyOff(b *testing.B) {
	var pd float64
	for i := 0; i < b.N; i++ {
		pd = ablationPoint(b, true)
	}
	b.ReportMetric(pd, "P_D")
}

// --- Substrate micro-benchmarks ---

func BenchmarkCorrelate512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u := chips.NewRandom(rng, 512)
	v := chips.NewRandom(rng, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chips.Correlate(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineUFHSimulation(b *testing.B) {
	u := baseline.DefaultUFH()
	rng := rand.New(rand.NewSource(12))
	var last float64
	for i := 0; i < b.N; i++ {
		last = u.SimulateEstablishment(rng)
	}
	b.ReportMetric(last, "s/establishment")
}

func BenchmarkRunEpochsMobility(b *testing.B) {
	p := analysis.Defaults()
	p.N = 30
	p.M = 6
	p.L = 10
	p.Q = 0
	p.FieldWidth, p.FieldHeight = 900, 900
	for i := 0; i < b.N; i++ {
		deploy, err := field.New(p.FieldWidth, p.FieldHeight)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		positions := deploy.PlaceUniform(rng, p.N)
		mob, err := field.NewWaypoint(field.WaypointConfig{
			Field: deploy, MinSpeed: 5, MaxSpeed: 15, Rand: rng,
		}, positions)
		if err != nil {
			b.Fatal(err)
		}
		net, err := core.NewNetwork(core.NetworkConfig{
			Params: p, Seed: int64(i), Jammer: core.JamReactive, Positions: positions,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := net.RunEpochs(core.EpochConfig{
			Mobility: mob, StepSeconds: 30, Epochs: 2, Window: 1, MNDP: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignSingleRun2000(b *testing.B) {
	// One full n=2000 campaign run (the unit of every figure point).
	p := analysis.Defaults()
	for i := 0; i < b.N; i++ {
		m, err := experiment.MeasurePoint(experiment.PointConfig{
			Params: p,
			Jammer: core.JamReactive,
			Runs:   1,
			Seed:   int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if m.PHat < 0 || m.PHat > 1 {
			b.Fatal("nonsense measurement")
		}
	}
}
