package main

import (
	"fmt"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// tracer records the traced run: one span per stage, emitted as
// internal/trace span events timestamped in seconds since the run
// started and kept in memory until the run ends, plus per-stage self
// time and allocation deltas read from runtime/metrics.
type tracer struct {
	t0     time.Time
	sink   *memSink
	tr     *trace.Tracer
	stages map[string]*stageStat
	// counts holds per-stage work counters (calls, chips, outcomes).
	counts map[string]float64
	// vals holds per-layer metrics read from the program itself.
	vals map[string]float64
	// extraSink, when set, holds span events the program emitted on its
	// own clock; they are written to a separate file.
	extraSink *memSink
	ms        [2]rtmetrics.Sample
}

// stageStat accumulates one span name's self time and allocations (the
// span's totals minus those of its child spans).
type stageStat struct {
	self        time.Duration
	objs, bytes uint64
}

func newTracer() *tracer {
	sink := &memSink{}
	t := &tracer{
		t0:     time.Now(),
		sink:   sink,
		tr:     trace.NewTracer(sink),
		stages: map[string]*stageStat{},
		counts: map[string]float64{},
		vals:   map[string]float64{},
	}
	t.ms[0].Name = "/gc/heap/allocs:objects"
	t.ms[1].Name = "/gc/heap/allocs:bytes"
	return t
}

func (t *tracer) allocs() (objs, bytes uint64) {
	rtmetrics.Read(t.ms[:])
	return t.ms[0].Value.Uint64(), t.ms[1].Value.Uint64()
}

func (t *tracer) count(name string, n float64) { t.counts[name] += n }

func (t *tracer) stage(name string) *stageStat {
	st, ok := t.stages[name]
	if !ok {
		st = &stageStat{}
		t.stages[name] = st
	}
	return st
}

func (t *tracer) spans() int { return len(t.sink.snapshot()) / 2 }

// span is one open or closed stage span.
type span struct {
	t         *tracer
	id        trace.SpanID
	parent    *span
	name      string
	start     time.Time
	objs      uint64
	bytes     uint64
	dur       time.Duration
	childDur  time.Duration
	childObjs uint64
	childB    uint64
}

// start opens a span under parent (nil for a root).
func (t *tracer) start(parent *span, name string) *span {
	s := &span{t: t, parent: parent, name: name}
	var pid trace.SpanID
	if parent != nil {
		pid = parent.id
	}
	s.objs, s.bytes = t.allocs()
	s.start = time.Now()
	s.id = t.tr.Start(s.start.Sub(t.t0).Seconds(), pid, -1, -1, name)
	return s
}

// end closes the span and charges its self time and allocations to its
// stage.
func (s *span) end() {
	t := s.t
	now := time.Now()
	s.dur = now.Sub(s.start)
	t.tr.End(now.Sub(t.t0).Seconds(), s.id, -1, -1, "")
	objs, bytes := t.allocs()
	dObjs, dBytes := objs-s.objs, bytes-s.bytes
	st := t.stage(s.name)
	st.self += s.dur - s.childDur
	st.objs += sub(dObjs, s.childObjs)
	st.bytes += sub(dBytes, s.childB)
	if p := s.parent; p != nil {
		p.childDur += s.dur
		p.childObjs += dObjs
		p.childB += dBytes
	}
}

func sub(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// write stores the recorded spans as span JSONL under dir/workload and
// returns that directory.
func (t *tracer) write(dir, workload string) (string, error) {
	out := filepath.Join(dir, workload)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	if err := writeJSONL(filepath.Join(out, "bench.jsonl"), t.sink.snapshot()); err != nil {
		return "", err
	}
	program := filepath.Join(out, "program.jsonl")
	if t.extraSink == nil {
		if err := os.Remove(program); err != nil && !os.IsNotExist(err) {
			return "", err
		}
		return out, nil
	}
	return out, writeJSONL(program, t.extraSink.snapshot())
}

func writeJSONL(path string, events []trace.Event) error {
	// Events from concurrent emitters can interleave slightly out of
	// time order; a stable sort restores it without reordering a span's
	// start after its end.
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := trace.NewJSONLWriter(f)
	for _, e := range events {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	return f.Close()
}

// memSink keeps every event in memory until the run ends.
type memSink struct {
	mu     sync.Mutex
	events []trace.Event
}

func (m *memSink) Emit(e trace.Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

func (m *memSink) snapshot() []trace.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]trace.Event(nil), m.events...)
}
