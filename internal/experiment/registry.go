package experiment

import (
	"fmt"

	"repro/internal/analysis"
)

// Experiment pairs an experiment id with its producer. Run reads the
// campaign settings from cfg: Base is the deployment, Runs the Monte-Carlo
// runs per point (or the trial count an entry derives from it), Seed the
// base seed.
type Experiment struct {
	ID  string
	Run func(cfg SweepConfig) (Figure, error)
}

// Experiments is the id → producer registry: Table I, every figure of the
// paper's §VI-B evaluation, the validations, the extensions and the
// baselines, in run order. jrsnd-sim, the report, the façade and the
// benchmarks all dispatch through it.
var Experiments = []Experiment{
	{"table1", func(SweepConfig) (Figure, error) { return Table1(), nil }},
	{"fig2a", Fig2a},
	{"fig2b", Fig2b},
	{"fig3a", Fig3a},
	{"fig3b", Fig3b},
	{"fig4a", func(cfg SweepConfig) (Figure, error) { return Fig4(cfg, 40) }},
	{"fig4b", func(cfg SweepConfig) (Figure, error) { return Fig4(cfg, 20) }},
	{"fig5a", Fig5a},
	{"fig5b", Fig5b},
	{"dsss", func(cfg SweepConfig) (Figure, error) { return DSSSValidation(cfg.Seed, max(cfg.Runs, 10)) }},
	{"dos", func(cfg SweepConfig) (Figure, error) { return DoSExperiment(cfg.Seed, 20) }},
	{"ext-antennas", func(cfg SweepConfig) (Figure, error) { return ExtAntennas(cfg.Base) }},
	{"ext-gold", func(cfg SweepConfig) (Figure, error) { return GoldComparison(cfg.Seed, 64, 5000) }},
	{"ext-z", ExtZ},
	{"ext-noise", func(cfg SweepConfig) (Figure, error) { return InterferenceValidation(cfg.Seed, max(cfg.Runs, 10)) }},
	{"ext-predistribution", func(cfg SweepConfig) (Figure, error) { return PredistributionComparison(cfg.Base, cfg.Seed) }},
	{"ext-crosscheck", func(cfg SweepConfig) (Figure, error) {
		return CrossCheckFigure(analysis.Params{}, max(cfg.Runs/4, 3), cfg.Seed)
	}},
	{"ext-adaptive-nu", func(cfg SweepConfig) (Figure, error) { return ExtAdaptiveNu(cfg, nil, 8) }},
	{"baseline-q", BaselineQ},
	{"baseline-latency", func(cfg SweepConfig) (Figure, error) {
		return BaselineLatency(cfg.Base, cfg.Seed, max(cfg.Runs*10, 100))
	}},
	{"baseline-dos", func(cfg SweepConfig) (Figure, error) { return BaselineDoS(cfg.Base) }},
}

// Lookup returns the registered experiment with the given id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", id)
}

// IDs lists the registered experiment ids in run order.
func IDs() []string {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return ids
}
