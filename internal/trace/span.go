package trace

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Causal spans, layered on the flat Event stream: a span is a pair of
// KindSpanStart/KindSpanEnd events sharing a SpanID, carrying a ParentID
// for causality and virtual-time Start/End stamps. The protocol engine,
// the sim engine and authd emit spans through a Tracer; BuildSpans reconstructs the forest from any recorded event
// stream so cmd/jrsnd-report can attribute where a handshake's latency
// went — per phase, per critical path, or as a flamegraph-compatible
// folded-stack export.

// SpanID identifies one span within a trace stream. 0 means "no span".
type SpanID uint64

// Tracer allocates span IDs and emits paired start/end events into a
// Sink. A nil *Tracer is a valid no-op, so instrumentation sites can call
// unconditionally. ID allocation is atomic: the sim engine is
// single-threaded (making IDs reproducible run to run), but authd shares
// one Tracer across handler goroutines.
type Tracer struct {
	sink Sink
	next atomic.Uint64
}

// NewTracer wraps sink in a Tracer; a nil (or normalized-to-nil) sink
// yields a nil Tracer so callers keep the one-pointer-check discipline.
func NewTracer(sink Sink) *Tracer {
	if s := Multi(sink); s != nil {
		return &Tracer{sink: s}
	}
	return nil
}

// Start opens a span named name at virtual time at, under parent (0 for a
// root), and returns its ID. Safe on a nil receiver (returns 0).
func (t *Tracer) Start(at float64, parent SpanID, node, peer int, name string) SpanID {
	if t == nil {
		return 0
	}
	id := SpanID(t.next.Add(1))
	t.sink.Emit(Event{At: at, Kind: KindSpanStart, Node: node, Peer: peer, Detail: name, Span: id, Parent: parent})
	return id
}

// End closes span id at virtual time at; detail records the outcome
// ("discovered", "mac failed", …). Ending span 0 (or on a nil receiver)
// is a no-op, so Start/End pairs compose with disabled tracing.
func (t *Tracer) End(at float64, id SpanID, node, peer int, detail string) {
	if t == nil || id == 0 {
		return
	}
	t.sink.Emit(Event{At: at, Kind: KindSpanEnd, Node: node, Peer: peer, Detail: detail, Span: id})
}

// Span is one reconstructed span.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Node   int
	Peer   int
	Start  float64
	End    float64
	// EndDetail is the outcome recorded by the end event.
	EndDetail string
	// Open marks a span whose end event never arrived (the handshake was
	// destroyed, the node crashed, or the trace was truncated); End is
	// clamped to the last event time in the stream.
	Open     bool
	Children []*Span
}

// Duration returns the span's virtual-time extent.
func (s *Span) Duration() float64 { return s.End - s.Start }

// SelfTime returns the span's duration minus the (clamped) time covered
// by its children — the folded-stack sample value.
func (s *Span) SelfTime() float64 {
	covered := 0.0
	for _, c := range s.Children {
		d := c.Duration()
		if d > 0 {
			covered += d
		}
	}
	self := s.Duration() - covered
	if self < 0 {
		return 0
	}
	return self
}

// Forest is the reconstructed span forest of one trace stream.
type Forest struct {
	// Roots are spans with no (locatable) parent, in start order.
	Roots []*Span
	// ByID indexes every reconstructed span.
	ByID map[SpanID]*Span
	// Open counts spans whose end event never arrived.
	Open int
	// OrphanEnds counts end events with no matching start — evidence of a
	// truncated (ring-dropped) trace.
	OrphanEnds int
}

// Named returns every span with the given name, in start order.
func (f *Forest) Named(name string) []*Span {
	var out []*Span
	for _, s := range f.ByID {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sortSpans(out)
	return out
}

// BuildSpans reconstructs the span forest from an event stream. Non-span
// events are ignored. Open spans are clamped to the last event time; end
// events without a start are counted as orphans (they indicate the start
// fell out of a bounded Recorder).
func BuildSpans(events []Event) *Forest {
	f := &Forest{ByID: map[SpanID]*Span{}}
	lastAt := 0.0
	for _, e := range events {
		if e.At > lastAt {
			lastAt = e.At
		}
		switch e.Kind {
		case KindSpanStart:
			if e.Span == 0 {
				continue
			}
			f.ByID[e.Span] = &Span{
				ID:     e.Span,
				Parent: e.Parent,
				Name:   e.Detail,
				Node:   e.Node,
				Peer:   e.Peer,
				Start:  e.At,
				Open:   true,
			}
		case KindSpanEnd:
			s, ok := f.ByID[e.Span]
			if !ok {
				f.OrphanEnds++
				continue
			}
			s.End = e.At
			s.EndDetail = e.Detail
			s.Open = false
		}
	}
	for _, s := range f.ByID {
		if s.Open {
			s.End = lastAt
			f.Open++
		}
		if s.Parent != 0 {
			if p, ok := f.ByID[s.Parent]; ok {
				p.Children = append(p.Children, s)
				continue
			}
		}
		f.Roots = append(f.Roots, s)
	}
	sortSpans(f.Roots)
	for _, s := range f.ByID {
		sortSpans(s.Children)
	}
	return f
}

// sortSpans orders spans by start time, breaking ties by ID (creation
// order) for deterministic output.
func sortSpans(spans []*Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
}

// PhaseStat aggregates every span sharing one name.
type PhaseStat struct {
	Name  string
	Count int
	// Open counts spans of this phase that never ended.
	Open  int
	Total float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
}

// Mean returns the average duration.
func (p PhaseStat) Mean() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Total / float64(p.Count)
}

// Phases aggregates one or more forests per span name, sorted by
// descending total time (the per-phase latency breakdown of
// cmd/jrsnd-report). Multiple forests arise from multi-file traces — e.g.
// one JSONL stream per chaos cell, where span IDs restart per file and so
// the forests cannot be merged at the event level.
func Phases(forests ...*Forest) []PhaseStat {
	durations := map[string][]float64{}
	open := map[string]int{}
	for _, f := range forests {
		for _, s := range f.ByID {
			durations[s.Name] = append(durations[s.Name], s.Duration())
			if s.Open {
				open[s.Name]++
			}
		}
	}
	out := make([]PhaseStat, 0, len(durations))
	for name, ds := range durations {
		sort.Float64s(ds)
		st := PhaseStat{
			Name:  name,
			Count: len(ds),
			Open:  open[name],
			Min:   ds[0],
			Max:   ds[len(ds)-1],
			P50:   quantile(ds, 0.5),
			P95:   quantile(ds, 0.95),
		}
		for _, d := range ds {
			st.Total += d
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// quantile reads the q-quantile from an ascending-sorted slice (nearest
// rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// WriteFolded renders one or more forests in the folded-stack format
// flamegraph tooling consumes: one line per unique root-to-leaf name path,
// stack frames joined by ';', value = aggregate self time in integer
// microseconds. Aggregation keys on name paths, so forests from separate
// trace files (colliding span IDs) fold together cleanly. Lines come out
// lexicographically sorted.
func WriteFolded(w io.Writer, forests ...*Forest) error {
	agg := map[string]int64{}
	var walk func(s *Span, prefix string)
	walk = func(s *Span, prefix string) {
		stack := s.Name
		if prefix != "" {
			stack = prefix + ";" + s.Name
		}
		agg[stack] += int64(s.SelfTime() * 1e6)
		for _, c := range s.Children {
			walk(c, stack)
		}
	}
	for _, f := range forests {
		for _, r := range f.Roots {
			walk(r, "")
		}
	}
	stacks := make([]string, 0, len(agg))
	for s := range agg {
		stacks = append(stacks, s)
	}
	sort.Strings(stacks)
	for _, s := range stacks {
		if _, err := fmt.Fprintf(w, "%s %d\n", s, agg[s]); err != nil {
			return err
		}
	}
	return nil
}
