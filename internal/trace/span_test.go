package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracerEmitsPairedEvents(t *testing.T) {
	rec, err := NewRecorder(16)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(rec)
	root := tr.Start(1.0, 0, 3, -1, "dndp.attempt")
	child := tr.Start(1.5, root, 3, 5, "dndp.hello_sweep")
	tr.End(2.0, child, 3, 5, "swept")
	tr.End(4.0, root, 3, -1, "discovered")

	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Kind != KindSpanStart || evs[0].Span != root || evs[0].Parent != 0 {
		t.Fatalf("root start malformed: %+v", evs[0])
	}
	if evs[1].Parent != root {
		t.Fatalf("child should carry parent %d: %+v", root, evs[1])
	}
	if root == child {
		t.Fatal("span IDs must be unique")
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	id := tr.Start(0, 0, -1, -1, "x")
	if id != 0 {
		t.Fatalf("nil tracer Start = %d, want 0", id)
	}
	tr.End(1, id, -1, -1, "") // must not panic
	if NewTracer(nil) != nil {
		t.Fatal("NewTracer(nil) should be nil")
	}
	var nilRec *Recorder
	if NewTracer(nilRec) != nil {
		t.Fatal("NewTracer(nil *Recorder) should be nil")
	}
}

func TestBuildSpansForest(t *testing.T) {
	rec, _ := NewRecorder(64)
	tr := NewTracer(rec)
	run := tr.Start(0, 0, -1, -1, "sim.run")
	a := tr.Start(0.1, run, 1, -1, "dndp.attempt")
	sweep := tr.Start(0.1, a, 1, -1, "dndp.hello_sweep")
	tr.End(0.3, sweep, 1, -1, "")
	verify := tr.Start(0.4, a, 2, 1, "dndp.auth1_verify")
	tr.End(0.5, verify, 2, 1, "ok")
	tr.End(0.9, a, 1, -1, "discovered")
	open := tr.Start(1.0, run, 4, -1, "dndp.attempt")
	_ = open // never ended: destroyed handshake
	tr.End(2.0, run, -1, -1, "")

	f := BuildSpans(rec.Events())
	if len(f.Roots) != 1 || f.Roots[0].Name != "sim.run" {
		t.Fatalf("want single sim.run root, got %+v", f.Roots)
	}
	if f.Open != 1 {
		t.Fatalf("Open = %d, want 1", f.Open)
	}
	if f.OrphanEnds != 0 {
		t.Fatalf("OrphanEnds = %d, want 0", f.OrphanEnds)
	}
	attempts := f.Named("dndp.attempt")
	if len(attempts) != 2 {
		t.Fatalf("got %d attempts, want 2", len(attempts))
	}
	if got := attempts[0].Duration(); got < 0.79 || got > 0.81 {
		t.Fatalf("first attempt duration = %v, want 0.8", got)
	}
	// The open attempt is clamped to the last event time.
	if !attempts[1].Open || attempts[1].End != 2.0 {
		t.Fatalf("open attempt not clamped: %+v", attempts[1])
	}
	if len(attempts[0].Children) != 2 {
		t.Fatalf("first attempt children = %d, want 2", len(attempts[0].Children))
	}
}

func TestBuildSpansOrphanEnd(t *testing.T) {
	f := BuildSpans([]Event{
		{At: 1, Kind: KindSpanEnd, Span: 99, Node: -1, Peer: -1},
	})
	if f.OrphanEnds != 1 {
		t.Fatalf("OrphanEnds = %d, want 1", f.OrphanEnds)
	}
}

func TestSelfTimeAndFolded(t *testing.T) {
	rec, _ := NewRecorder(64)
	tr := NewTracer(rec)
	run := tr.Start(0, 0, -1, -1, "sim.run")
	a := tr.Start(0, run, 1, -1, "dndp.attempt")
	s := tr.Start(0, a, 1, -1, "dndp.hello_sweep")
	tr.End(0.25, s, 1, -1, "")
	tr.End(1.0, a, 1, -1, "")
	tr.End(1.0, run, -1, -1, "")
	f := BuildSpans(rec.Events())

	attempt := f.Named("dndp.attempt")[0]
	if got := attempt.SelfTime(); got < 0.74 || got > 0.76 {
		t.Fatalf("attempt self time = %v, want 0.75", got)
	}

	var buf bytes.Buffer
	if err := WriteFolded(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := []string{
		"sim.run 0\n",
		"sim.run;dndp.attempt 750000\n",
		"sim.run;dndp.attempt;dndp.hello_sweep 250000\n",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("folded output missing %q:\n%s", w, out)
		}
	}
	// Folded output must be sorted and stable.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("folded output not sorted at line %d:\n%s", i, out)
		}
	}
}

func TestPhases(t *testing.T) {
	rec, _ := NewRecorder(64)
	tr := NewTracer(rec)
	for i := 0; i < 4; i++ {
		sp := tr.Start(float64(i), 0, i, -1, "dndp.attempt")
		tr.End(float64(i)+0.5, sp, i, -1, "")
	}
	short := tr.Start(10, 0, 9, -1, "dndp.hello_buffer")
	tr.End(10.1, short, 9, -1, "")
	f := BuildSpans(rec.Events())
	ps := Phases(f)
	if len(ps) != 2 {
		t.Fatalf("got %d phases, want 2", len(ps))
	}
	// Sorted by total descending: 4×0.5s beats 1×0.1s.
	if ps[0].Name != "dndp.attempt" || ps[0].Count != 4 {
		t.Fatalf("first phase = %+v", ps[0])
	}
	if got := ps[0].Mean(); got < 0.49 || got > 0.51 {
		t.Fatalf("attempt mean = %v, want 0.5", got)
	}
	if ps[1].Name != "dndp.hello_buffer" {
		t.Fatalf("second phase = %+v", ps[1])
	}
}
