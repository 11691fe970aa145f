package faults

import (
	"encoding/json"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Chaos harness: a fault matrix of jammer model × node churn × channel
// loss × Byzantine adversary, each cell running a full hardened deployment
// to quiescence, applying the monitor timeouts, and checking the protocol
// invariants. Every cell runs twice under the same seed; diverging
// outcomes fail the determinism invariant.

// Cell is one fault-matrix configuration.
type Cell struct {
	Name   string
	Jammer core.JammerKind
	Churn  bool
	// Loss is the channel fault intensity: loss probability per frame,
	// with duplication and reorder at half that rate. 0 disables channel
	// faults.
	Loss float64
	// Adversary arms a Byzantine behavior (replay, forge, bitflip, flood)
	// on one compromised node; None runs jamming/churn/loss only.
	Adversary adversary.Kind
}

// CellResult is the outcome of one chaos cell.
type CellResult struct {
	Cell Cell
	// Discovered counts mutually discovered pairs at quiescence.
	Discovered int
	// Violations lists every invariant breach (empty on a healthy run).
	Violations []Violation
	// Deterministic reports whether two same-seed runs of the cell
	// produced byte-identical outcomes.
	Deterministic bool
}

// Passed reports whether the cell upheld every invariant.
func (r CellResult) Passed() bool {
	return len(r.Violations) == 0 && r.Deterministic
}

// Matrix returns the full fault matrix: the 16 base cells (4 jammers ×
// churn on/off × loss on/off) plus 16 adversary cells (4 Byzantine
// behaviors × {no jamming, intelligent jamming} × churn on/off, loss 0).
func Matrix() []Cell {
	jammers := []core.JammerKind{core.JamNone, core.JamPulse, core.JamSweep, core.JamIntelligent}
	var cells []Cell
	for _, jam := range jammers {
		for _, churn := range []bool{false, true} {
			for _, loss := range []float64{0, 0.15} {
				name := fmt.Sprintf("jam=%s/churn=%t/loss=%.2f", jam, churn, loss)
				cells = append(cells, Cell{Name: name, Jammer: jam, Churn: churn, Loss: loss})
			}
		}
	}
	return append(cells, adversaryCells()...)
}

// adversaryCells builds the Byzantine extension of the matrix.
func adversaryCells() []Cell {
	var cells []Cell
	for _, kind := range adversary.Kinds {
		for _, jam := range []core.JammerKind{core.JamNone, core.JamIntelligent} {
			for _, churn := range []bool{false, true} {
				name := fmt.Sprintf("adv=%s/jam=%s/churn=%t", kind, jam, churn)
				cells = append(cells, Cell{Name: name, Jammer: jam, Churn: churn, Adversary: kind})
			}
		}
	}
	return cells
}

// MatrixFor restricts the matrix to one Byzantine behavior's cells;
// adversary.None selects the 16 base (non-Byzantine) cells.
func MatrixFor(kind adversary.Kind) []Cell {
	var out []Cell
	for _, cell := range Matrix() {
		if cell.Adversary == kind {
			out = append(out, cell)
		}
	}
	return out
}

// chaosParams is the deployment every cell runs: a 12-node cluster with a
// code pool small enough that compromising two nodes leaves the jammers
// real work and some pairs without a usable shared code — forcing the
// retry and fallback paths.
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

// chaosPositions clusters all n nodes within mutual range so every pair
// is physically discoverable.
func chaosPositions(n int) []field.Point {
	pts := make([]field.Point, n)
	for i := range pts {
		pts[i] = field.Point{X: 100 + float64(i%5)*30, Y: 100 + float64(i/5)*30}
	}
	return pts
}

// RunCell executes one chaos cell twice under the given seed and returns
// the verified outcome.
func RunCell(cell Cell, seed int64) (CellResult, error) {
	return RunCellTraced(cell, seed, nil)
}

// RunCellTraced is RunCell with a trace sink attached to the first of the
// two determinism runs. Trace emission is passive — it never feeds back
// into RNG draws or event ordering, and the determinism fingerprint
// excludes it — so a traced cell still replays byte-identically.
func RunCellTraced(cell Cell, seed int64, sink trace.Sink) (CellResult, error) {
	first, fp1, err := runCellOnce(cell, seed, sink)
	if err != nil {
		return CellResult{}, fmt.Errorf("faults: cell %s: %w", cell.Name, err)
	}
	_, fp2, err := runCellOnce(cell, seed, nil)
	if err != nil {
		return CellResult{}, fmt.Errorf("faults: cell %s (replay): %w", cell.Name, err)
	}
	first.Deterministic = fp1 == fp2
	return first, nil
}

// runCellOnce builds the cell's deployment, drains it with the fault plan
// armed, applies the monitor timeouts, and checks invariants. The returned
// fingerprint captures the complete observable outcome for the
// determinism check.
func runCellOnce(cell Cell, seed int64, sink trace.Sink) (CellResult, string, error) {
	p := chaosParams()
	retry := core.DefaultRetryConfig(p)
	streams := sim.NewStreams(seed ^ int64(len(cell.Name))<<32)

	var injector radio.FaultInjector
	if cell.Loss > 0 {
		var err error
		injector, err = NewChannel(ChannelConfig{
			Loss:     cell.Loss,
			Dup:      cell.Loss / 2,
			Reorder:  cell.Loss / 2,
			MaxDelay: 0.01,
		}, streams.Get("chaos-channel"))
		if err != nil {
			return CellResult{}, "", err
		}
	}

	net, err := core.NewNetwork(core.NetworkConfig{
		Params:    p,
		Seed:      seed,
		Jammer:    cell.Jammer,
		Positions: chaosPositions(p.N),
		Faults:    injector,
		Retry:     retry,
		Defense:   core.DefaultDefenseConfig(p),
		Trace:     sink,
	})
	if err != nil {
		return CellResult{}, "", err
	}
	compromised, err := net.CompromiseRandom(2)
	if err != nil {
		return CellResult{}, "", err
	}
	if cell.Adversary != adversary.None {
		// One of the compromised nodes turns Byzantine: it keeps its codes
		// and radio but records/forges/corrupts/floods instead of jamming.
		if _, err := net.ArmAdversary(compromised[0], cell.Adversary); err != nil {
			return CellResult{}, "", err
		}
	}

	if cell.Churn {
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
		rng := streams.Get("chaos-churn")
		plan, err := RandomChurn(len(honest), 2, 1.0, rng)
		if err != nil {
			return CellResult{}, "", err
		}
		for i := range plan {
			plan[i].Node = honest[plan[i].Node]
		}
		if err := ScheduleChurn(net, plan); err != nil {
			return CellResult{}, "", err
		}
	}

	if err := net.RunDNDP(1); err != nil {
		return CellResult{}, "", err
	}
	if err := net.RunMNDP(1); err != nil {
		return CellResult{}, "", err
	}
	// Quiescent: apply the monitor timeouts, then check invariants.
	net.ExpireStaleNeighbors()
	net.ExpireSilentSessions()
	violations := CheckInvariants(net, retry.SessionTimeout)

	res := CellResult{
		Cell:       cell,
		Discovered: len(net.Discoveries()),
		Violations: violations,
	}
	fp, err := fingerprint(net, violations)
	if err != nil {
		return CellResult{}, "", err
	}
	return res, fp, nil
}

// fingerprint serializes a run's observable outcome: the discovery ledger,
// the medium counters, and any violations.
func fingerprint(net *core.Network, violations []Violation) (string, error) {
	pairs, err := json.Marshal(net.Discoveries())
	if err != nil {
		return "", err
	}
	stats, err := json.Marshal(net.MediumStats())
	if err != nil {
		return "", err
	}
	vs, err := json.Marshal(violations)
	if err != nil {
		return "", err
	}
	return string(pairs) + "|" + string(stats) + "|" + string(vs), nil
}

// RunMatrix runs every cell and returns the results in matrix order.
func RunMatrix(cells []Cell, seed int64) ([]CellResult, error) {
	out := make([]CellResult, 0, len(cells))
	for _, cell := range cells {
		res, err := RunCell(cell, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
