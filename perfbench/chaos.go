package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/sim"
)

// protocolEngine is the event-driven engine workload: the full chaos
// matrix (core, sim, wire, the radio medium, adversary and ibc) on
// 12-node deployments, each cell run twice for its determinism check.
// It builds only small code pools and runs no hop search.
type protocolEngine struct {
	cells []faults.Cell
}

func (e *protocolEngine) setup(seed int64) error {
	if e.cells == nil {
		e.cells = faults.Matrix()
	}
	// One cell warms the engine and the heap.
	_, err := faults.RunCell(e.cells[0], seed)
	return err
}

func (e *protocolEngine) close() {}

// pass runs the matrix cell by cell with faults.RunCell, exactly as
// faults.RunMatrix loops over it, timing each cell.
func (e *protocolEngine) pass(ctx context.Context, seed int64, clk *clock) (passResult, error) {
	var pr passResult
	for _, cell := range e.cells {
		if err := ctx.Err(); err != nil {
			return passResult{}, err
		}
		var r faults.CellResult
		err := clk.time(1, func() (err error) {
			r, err = faults.RunCell(cell, seed)
			return err
		})
		if err != nil {
			return passResult{}, err
		}
		pr.out = append(pr.out, cellOutputs(r.Cell.Name, r.Discovered, r.Passed())...)
	}
	pr.ops = len(e.cells)
	return pr, nil
}

func cellOutputs(name string, discovered int, passed bool) outputs {
	pass := 0.0
	if passed {
		pass = 1
	}
	return outputs{
		{Key: name + "/discovered", Value: float64(discovered)},
		{Key: name + "/passed", Value: pass},
	}
}

// Chaos deployment mirrored from internal/faults (chaos.go): a 12-node
// cluster with a code pool small enough that compromising two nodes
// leaves the jammers real work.
func chaosParams() analysis.Params {
	p := analysis.Defaults()
	p.N = 12
	p.M = 6
	p.L = 4
	p.Q = 0
	p.FieldWidth, p.FieldHeight = 1000, 1000
	p.Range = 300
	return p
}

func chaosPositions(n int) []field.Point {
	pts := make([]field.Point, n)
	for i := range pts {
		pts[i] = field.Point{X: 100 + float64(i%5)*30, Y: 100 + float64(i/5)*30}
	}
	return pts
}

// cellOutcome is one run of a cell.
type cellOutcome struct {
	discovered  int
	violations  []faults.Violation
	fingerprint string
}

func (e *protocolEngine) replay(ctx context.Context, seed int64, tr *tracer, parent *span) (outputs, error) {
	var out outputs
	for _, cell := range e.cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := tr.start(parent, "faults.cell")
		first, err := replayCellOnce(tr, sp, cell, seed)
		var second cellOutcome
		if err == nil {
			second, err = replayCellOnce(tr, sp, cell, seed)
		}
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", cell.Name, err)
		}
		passed := len(first.violations) == 0 && first.fingerprint == second.fingerprint
		out = append(out, cellOutputs(cell.Name, first.discovered, passed)...)
	}
	return out, nil
}

// replayCellOnce is one run of a chaos cell, one span per engine stage.
func replayCellOnce(tr *tracer, parent *span, cell faults.Cell, seed int64) (cellOutcome, error) {
	p := chaosParams()
	retry := core.DefaultRetryConfig(p)
	streams := sim.NewStreams(seed ^ int64(len(cell.Name))<<32)
	var injector radio.FaultInjector
	if cell.Loss > 0 {
		var err error
		injector, err = faults.NewChannel(faults.ChannelConfig{
			Loss: cell.Loss, Dup: cell.Loss / 2, Reorder: cell.Loss / 2, MaxDelay: 0.01,
		}, streams.Get("chaos-channel"))
		if err != nil {
			return cellOutcome{}, err
		}
	}
	reg := metrics.New()

	sp := tr.start(parent, "core.new_network")
	net, err := buildCellNetwork(cell, p, seed, retry, injector, reg, streams)
	sp.end()
	if err != nil {
		return cellOutcome{}, err
	}

	sp = tr.start(parent, "core.run_dndp")
	err = net.RunDNDP(1)
	sp.end()
	if err != nil {
		return cellOutcome{}, err
	}

	sp = tr.start(parent, "core.run_mndp")
	err = net.RunMNDP(1)
	sp.end()
	if err != nil {
		return cellOutcome{}, err
	}

	sp = tr.start(parent, "faults.check_invariants")
	net.ExpireStaleNeighbors()
	net.ExpireSilentSessions()
	violations := faults.CheckInvariants(net, retry.SessionTimeout)
	sp.end()

	snap := reg.Snapshot()
	for name, v := range snap.Counters {
		for _, family := range []string{"jrsnd_sim_events_fired_total", "jrsnd_core_tx_total", "jrsnd_core_jammed_total", "jrsnd_core_handshake_retries_total"} {
			if name == family || strings.HasPrefix(name, family+"{") {
				tr.count(family, float64(v))
			}
		}
	}

	fp, err := cellFingerprint(net, violations)
	if err != nil {
		return cellOutcome{}, err
	}
	return cellOutcome{discovered: len(net.Discoveries()), violations: violations, fingerprint: fp}, nil
}

// buildCellNetwork deploys the cell: the network, two compromised nodes,
// the armed adversary and the churn plan.
func buildCellNetwork(cell faults.Cell, p analysis.Params, seed int64, retry *core.RetryConfig, injector radio.FaultInjector, reg *metrics.Registry, streams *sim.Streams) (*core.Network, error) {
	net, err := core.NewNetwork(core.NetworkConfig{
		Params:          p,
		Seed:            seed,
		Jammer:          cell.Jammer,
		Positions:       chaosPositions(p.N),
		Faults:          injector,
		Retry:           retry,
		Defense:         core.DefaultDefenseConfig(p),
		ClockSkewSpread: 0.05,
		Metrics:         reg,
	})
	if err != nil {
		return nil, err
	}
	compromised, err := net.CompromiseRandom(2)
	if err != nil {
		return nil, err
	}
	if cell.Adversary != adversary.None {
		if _, err := net.ArmAdversary(compromised[0], cell.Adversary); err != nil {
			return nil, err
		}
	}
	if !cell.Churn {
		return net, nil
	}
	isCompromised := map[int]bool{}
	for _, i := range compromised {
		isCompromised[i] = true
	}
	var honest []int
	for i := 0; i < net.NumNodes(); i++ {
		if !isCompromised[i] {
			honest = append(honest, i)
		}
	}
	plan, err := faults.RandomChurn(len(honest), 2, 1.0, streams.Get("chaos-churn"))
	if err != nil {
		return nil, err
	}
	for i := range plan {
		plan[i].Node = honest[plan[i].Node]
	}
	return net, faults.ScheduleChurn(net, plan)
}

// cellFingerprint serializes a run's observable outcome the way the
// chaos harness does for its determinism check.
func cellFingerprint(net *core.Network, violations []faults.Violation) (string, error) {
	var b strings.Builder
	for i, v := range []any{net.Discoveries(), net.MediumStats(), violations} {
		data, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		if i > 0 {
			b.WriteByte('|')
		}
		b.Write(data)
	}
	return b.String(), nil
}

// diverge names the cell whose outcome differs and the stage that
// decides it.
func (e *protocolEngine) diverge(_ int64, key string) string {
	if cell, ok := strings.CutSuffix(key, "/discovered"); ok {
		return fmt.Sprintf("core.run_dndp/core.run_mndp (discoveries) in cell %s", cell)
	}
	return fmt.Sprintf("faults.check_invariants (verdict) at %s", key)
}
