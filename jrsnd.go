// Package jrsnd is a from-scratch Go implementation of JR-SND —
// Jamming-Resilient Secure Neighbor Discovery in Mobile Ad Hoc Networks
// (Zhang, Zhang, Huang; ICDCS 2011) — together with every substrate the
// paper depends on and the full evaluation harness that regenerates its
// tables and figures.
//
// JR-SND combines Direct Sequence Spread Spectrum with random spread-code
// pre-distribution: before deployment, a single MANET authority loads each
// node with m spread codes drawn from a secret pool such that any two
// nodes share a code with high probability and each code is known to at
// most l nodes. Nodes then discover and mutually authenticate each other
// despite omnipresent jammers, either directly over a shared code (D-NDP,
// §V-B of the paper) or through a multi-hop path of already-discovered
// neighbors (M-NDP, §V-C).
//
// # Layers
//
//   - Theory: closed-form performance model (Theorems 1–4); see
//     DefaultParams, DNDPBounds, DNDPLatency, MNDPLowerBound, MNDPLatency.
//   - Protocol engine: an event-driven simulation of the full protocol —
//     HELLO/CONFIRM/authentication exchanges, the x-sub-session redundancy
//     design, M-NDP signed request flooding, the DoS revocation defence —
//     over a message-level radio with random/reactive/intelligent jammers;
//     see New and NetworkConfig.
//   - Chip level: a real DSSS PHY (±1 chip sequences, correlation
//     de-spreading, sliding-window synchronization, Reed–Solomon erasure
//     coding) validating the message-level jamming model; see the
//     internal/dsss and internal/rs packages, and `jrsnd-sim -exp dsss`
//     and `-exp fig4b` for the jamming sweeps.
//   - Experiments: Monte-Carlo campaigns that reproduce every figure of
//     the paper's evaluation; see RunExperiment, ExperimentIDs and
//     MeasurePoint.
//
// # Quick start
//
//	params := jrsnd.DefaultParams()
//	params.N, params.L, params.Q = 50, 10, 2
//	net, err := jrsnd.New(jrsnd.NetworkConfig{
//		Params: params,
//		Seed:   1,
//		Jammer: jrsnd.JamReactive,
//	})
//	if err != nil { ... }
//	if _, err := net.CompromiseRandom(params.Q); err != nil { ... }
//	if err := net.RunDNDP(1); err != nil { ... }   // D-NDP round
//	if err := net.RunMNDP(1); err != nil { ... }   // M-NDP round
//	for _, d := range net.Discoveries() { ... }
//
// The Example_* functions in example_test.go (quickstart, battlefield,
// convoy, dosAttack, metricsDump) are complete, output-checked programs;
// EXPERIMENTS.md has the paper-versus-measured record.
package jrsnd

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Params is the full Table I parameter set of the paper.
type Params = analysis.Params

// DefaultParams returns the paper's default evaluation parameters
// (Table I).
func DefaultParams() Params { return analysis.Defaults() }

// Network is a simulated JR-SND deployment: nodes with pre-distributed
// spread codes and ID-based keys, a shared radio medium, and a configurable
// jammer.
type Network = core.Network

// NetworkConfig configures a deployment; see core.NetworkConfig.
type NetworkConfig = core.NetworkConfig

// Node is one MANET node running JR-SND.
type Node = core.Node

// Neighbor is an authenticated logical-neighbor relationship.
type Neighbor = core.Neighbor

// PairDiscovery records a completed mutual discovery.
type PairDiscovery = core.PairDiscovery

// DoSReport aggregates the verification work a DoS attack forced.
type DoSReport = core.DoSReport

// EpochConfig and EpochStats drive Network.RunEpochs, the periodic
// mobility + re-discovery loop.
type (
	EpochConfig = core.EpochConfig
	EpochStats  = core.EpochStats
)

// JammerKind selects the adversary model of §IV-B.
type JammerKind = core.JammerKind

// Jammer models for NetworkConfig.Jammer.
const (
	JamNone        = core.JamNone
	JamRandom      = core.JamRandom
	JamReactive    = core.JamReactive
	JamIntelligent = core.JamIntelligent
)

// Discovery methods reported in PairDiscovery.Via.
const (
	ViaDNDP = core.ViaDNDP
	ViaMNDP = core.ViaMNDP
)

// New creates a simulated JR-SND deployment. Nodes are issued keys and
// spread codes and attached to the medium; call CompromiseRandom and the
// Run methods to exercise the protocols.
func New(cfg NetworkConfig) (*Network, error) { return core.NewNetwork(cfg) }

// Theory — the closed-form model of §VI-A.

// PrShared returns Pr[x] (Eq. 1): the probability two nodes share exactly
// x spread codes.
func PrShared(p Params, x int) float64 { return analysis.PrShared(p, x) }

// Alpha returns α (Eq. 2): the probability any given pool code is
// compromised after q node compromises.
func Alpha(p Params) float64 { return analysis.Alpha(p) }

// DNDPBounds returns (P̂−, P̂+) of Theorem 1: the D-NDP discovery
// probability under reactive (lower) and random (upper) jamming.
func DNDPBounds(p Params) (lower, upper float64) { return analysis.DNDPBounds(p) }

// DNDPLatency returns T̄_D of Theorem 2.
func DNDPLatency(p Params) float64 { return analysis.DNDPLatency(p) }

// MNDPLowerBound returns the Theorem 3 bound on P̂_M for ν = 2 given the
// D-NDP probability and the average physical degree g.
func MNDPLowerBound(pd, g float64) float64 { return analysis.MNDPLowerBound(pd, g) }

// MNDPLatency returns T̄_M of Theorem 4 for a ν-hop path and degree g.
func MNDPLatency(p Params, nu int, g float64) float64 { return analysis.MNDPLatency(p, nu, g) }

// Combined returns the JR-SND totals P̂ and T̄ from the theory model.
func Combined(p Params) (pHat, tBar float64) { return analysis.Combined(p) }

// Experiments — Monte-Carlo reproductions of the paper's figures.

// Figure is the reproduction of one paper figure or table.
type Figure = experiment.Figure

// Series is one plotted curve of a Figure.
type Series = experiment.Series

// SweepConfig configures a figure reproduction run.
type SweepConfig = experiment.SweepConfig

// PointConfig and PointMeasure drive single-point campaigns.
type (
	PointConfig  = experiment.PointConfig
	PointMeasure = experiment.PointMeasure
)

// JammerModel selects the adversary for campaign experiments.
type JammerModel = experiment.JammerModel

// Campaign jammer models.
const (
	CampaignJamNone     = experiment.JamNone
	CampaignJamRandom   = experiment.JamRandom
	CampaignJamReactive = experiment.JamReactive
)

// MeasurePoint runs the Monte-Carlo campaign for one parameter point.
func MeasurePoint(cfg PointConfig) (PointMeasure, error) { return experiment.MeasurePoint(cfg) }

// RunExperiment runs the registered experiment with the given id (see
// ExperimentIDs): Table I, a figure of the paper's evaluation, a
// validation, an extension or a baseline, exactly as cmd/jrsnd-sim -exp
// computes it from cfg.
func RunExperiment(id string, cfg SweepConfig) (Figure, error) {
	e, err := experiment.Lookup(id)
	if err != nil {
		return Figure{}, err
	}
	return e.Run(cfg)
}

// ExperimentIDs lists the ids RunExperiment accepts, in cmd/jrsnd-sim's
// run order.
func ExperimentIDs() []string { return experiment.IDs() }

// PrintFigure renders a figure as an aligned text table.
func PrintFigure(w io.Writer, f Figure) error { return experiment.Print(w, f) }

// WriteFigureCSV emits a figure as CSV.
func WriteFigureCSV(w io.Writer, f Figure) error { return experiment.WriteCSV(w, f) }

// Observability — structured protocol-event tracing (NetworkConfig.Trace)
// and the metric registry (NetworkConfig.Metrics).

// TraceSink receives protocol events; implementations include the bounded
// TraceRecorder and the streaming TraceJSONLWriter.
type TraceSink = trace.Sink

// TraceRecorder collects protocol events during a simulation.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded protocol event.
type TraceEvent = trace.Event

// TraceJSONLWriter streams protocol events as JSON Lines.
type TraceJSONLWriter = trace.JSONLWriter

// NewTraceRecorder creates a bounded event recorder to pass in
// NetworkConfig.Trace.
func NewTraceRecorder(capacity int) (*TraceRecorder, error) { return trace.NewRecorder(capacity) }

// NewTraceJSONLWriter creates a streaming JSONL sink for
// NetworkConfig.Trace; call Close when the run finishes.
func NewTraceJSONLWriter(w io.Writer) *TraceJSONLWriter { return trace.NewJSONLWriter(w) }

// MultiTrace fans protocol events out to several sinks at once.
func MultiTrace(sinks ...TraceSink) TraceSink { return trace.Multi(sinks...) }

// MetricsRegistry collects counters, gauges and histograms from an
// instrumented deployment; pass one in NetworkConfig.Metrics and call
// Snapshot after the run.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time copy of a registry, mergeable across
// Monte-Carlo runs and exportable as Prometheus text or JSON.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsRegistry creates an empty metric registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// WriteMetricsPrometheus renders a snapshot in the Prometheus text format.
func WriteMetricsPrometheus(w io.Writer, s MetricsSnapshot) error {
	return metrics.WritePrometheus(w, s)
}

// WriteMetricsJSON renders a snapshot as indented JSON.
func WriteMetricsJSON(w io.Writer, s MetricsSnapshot) error { return metrics.WriteJSON(w, s) }

// Baselines — the schemes the paper argues against (§I/§II).

// Baseline scheme types; the comparison experiments built on them are the
// baseline-q, baseline-latency and baseline-dos ids of RunExperiment.
type (
	BaselineCommonCode    = baseline.CommonCode
	BaselinePairwiseCode  = baseline.PairwiseCode
	BaselinePublicCodeSet = baseline.PublicCodeSet
	BaselineUFH           = baseline.UFH
)

// DefaultUFH returns UFH parameters in the regime of the paper's ref [3].
func DefaultUFH() BaselineUFH { return baseline.DefaultUFH() }
