// Package trace provides structured event tracing for the protocol
// engine: protocol components emit typed events into a pluggable Sink —
// a bounded in-memory ring Recorder with filtering and text rendering, a
// streaming JSONL writer, or any combination via Multi. Traces make the
// four-message D-NDP dance and the M-NDP flood inspectable in tests and
// examples without print-debugging the engine.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Sink consumes protocol events. Implementations must tolerate concurrent
// Emit calls: the engine itself is single-threaded, but a sink may be
// shared by parallel campaign runs.
type Sink interface {
	Emit(Event)
}

// Multi fans every event out to all the given sinks, skipping nils. It
// returns nil when no usable sink remains, so the result can be stored
// directly in a config field.
func Multi(sinks ...Sink) Sink {
	var kept []Sink
	for _, s := range sinks {
		if s == nil {
			continue
		}
		if r, ok := s.(*Recorder); ok && r == nil {
			continue
		}
		kept = append(kept, s)
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiSink(kept)
}

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Kind classifies trace events.
type Kind int

// Event kinds.
const (
	KindTx Kind = iota + 1
	KindJammed
	KindRx
	KindDiscovery
	KindExpiry
	KindRevocation
	KindDrop
	KindCrash
	KindRestart
	KindRetry
	KindSpanStart
	KindSpanEnd
)

func (k Kind) String() string {
	switch k {
	case KindTx:
		return "tx"
	case KindJammed:
		return "jammed"
	case KindRx:
		return "rx"
	case KindDiscovery:
		return "discovery"
	case KindExpiry:
		return "expiry"
	case KindRevocation:
		return "revocation"
	case KindDrop:
		return "drop"
	case KindCrash:
		return "crash"
	case KindRestart:
		return "restart"
	case KindRetry:
		return "retry"
	case KindSpanStart:
		return "span_start"
	case KindSpanEnd:
		return "span_end"
	default:
		return "unknown"
	}
}

// Event is one recorded protocol event.
type Event struct {
	At     float64 // virtual time (s)
	Kind   Kind
	Node   int    // acting node (-1 when not applicable)
	Peer   int    // counterpart node (-1 when not applicable)
	Detail string // free-form context ("HELLO code=17", "via M-NDP", …)
	// Span/Parent carry causal-span identity for KindSpanStart/KindSpanEnd
	// events (see span.go); 0 elsewhere.
	Span   SpanID
	Parent SpanID
}

// String renders the event as one line.
func (e Event) String() string {
	spans := ""
	if e.Span != 0 {
		if e.Parent != 0 {
			spans = fmt.Sprintf(" span=%d parent=%d", e.Span, e.Parent)
		} else {
			spans = fmt.Sprintf(" span=%d", e.Span)
		}
	}
	switch {
	case e.Node >= 0 && e.Peer >= 0:
		return fmt.Sprintf("%10.6fs %-10s node=%d peer=%d %s%s", e.At, e.Kind, e.Node, e.Peer, e.Detail, spans)
	case e.Node >= 0:
		return fmt.Sprintf("%10.6fs %-10s node=%d %s%s", e.At, e.Kind, e.Node, e.Detail, spans)
	default:
		return fmt.Sprintf("%10.6fs %-10s %s%s", e.At, e.Kind, e.Detail, spans)
	}
}

// Recorder collects events up to a capacity, then drops the oldest
// (ring-buffer semantics). A nil *Recorder is a valid no-op sink, so
// callers can emit unconditionally. All methods are goroutine-safe, so a
// single Recorder can be shared across parallel campaign runs.
type Recorder struct {
	mu      sync.Mutex
	cap     int
	events  []Event
	start   int // ring start index
	dropped int
}

// Recorder is the canonical Sink implementation.
var _ Sink = (*Recorder)(nil)

// NewRecorder creates a recorder holding at most capacity events.
func NewRecorder(capacity int) (*Recorder, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("trace: capacity %d must be >= 1", capacity)
	}
	return &Recorder{cap: capacity, events: make([]Event, 0, capacity)}, nil
}

// Emit records an event. Safe on a nil receiver.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.events) < r.cap {
		r.events = append(r.events, e)
		return
	}
	r.events[r.start] = e
	r.start = (r.start + 1) % r.cap
	r.dropped++
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped returns how many events were evicted.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the retained events in chronological order (a copy).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	for i := 0; i < len(r.events); i++ {
		// The ring wraps at the configured capacity; before the buffer
		// first fills, start is 0 and the modulus is inert.
		out = append(out, r.events[(r.start+i)%r.cap])
	}
	return out
}

// Filter returns the retained events matching all non-zero criteria: kind
// (0 = any), node (-1 = any; matches Node or Peer), and substring (empty =
// any).
func (r *Recorder) Filter(kind Kind, node int, substring string) []Event {
	var out []Event
	for _, e := range r.Events() {
		if kind != 0 && e.Kind != kind {
			continue
		}
		if node >= 0 && e.Node != node && e.Peer != node {
			continue
		}
		if substring != "" && !strings.Contains(e.Detail, substring) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Dump writes all retained events to w, one per line.
func (r *Recorder) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	if d := r.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events dropped)\n", d); err != nil {
			return err
		}
	}
	return nil
}

// Counts aggregates retained events per kind.
func (r *Recorder) Counts() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range r.Events() {
		out[e.Kind]++
	}
	return out
}
