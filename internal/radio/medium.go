package radio

import (
	"errors"
	"fmt"

	"repro/internal/codepool"
	"repro/internal/sim"
)

// Message is a protocol message on the air. The medium is payload-agnostic;
// the protocol layer defines Kind and Payload.
type Message struct {
	Kind        int
	Code        codepool.CodeID // pool code in use, or SessionCode
	PayloadBits int             // pre-ECC payload length in bits
	Payload     any
}

// Handler receives messages that survived jamming. from is the transmitter
// index; a handler is only invoked for nodes in range of the transmitter.
type Handler func(from int, msg Message)

// Stats aggregates medium activity.
type Stats struct {
	Transmissions int
	Jammed        int
	Delivered     int
	// Channel-fault outcomes (zero unless a FaultInjector is configured).
	Lost       int // frames dropped by the fault plan
	Duplicated int // frames delivered twice
	Delayed    int // frames delivered with extra reorder delay
}

// FaultDecision is one channel-fault verdict for a transmission that
// survived jamming.
type FaultDecision struct {
	// Drop loses the frame entirely (no receiver hears it).
	Drop bool
	// Duplicate delivers the frame a second time, right after the first.
	Duplicate bool
	// Delay adds extra latency before delivery, letting later frames
	// overtake this one (bounded reorder). Must be >= 0.
	Delay sim.Time
}

// FaultInjector decides per-transmission channel faults. Implementations
// must be deterministic given their RNG stream; the medium consults the
// injector exactly once per non-jammed transmission, in engine order.
// to is -1 for broadcasts.
type FaultInjector interface {
	Decide(from, to int, msg Message) FaultDecision
}

// InjectorFunc adapts a function to the FaultInjector interface.
type InjectorFunc func(from, to int, msg Message) FaultDecision

// Decide invokes the function.
func (f InjectorFunc) Decide(from, to int, msg Message) FaultDecision { return f(from, to, msg) }

// Interceptor sits on the air between transmitter and receivers: it sees
// every transmission that survived jamming and returns the message that is
// actually delivered — possibly with a mutated payload (Byzantine frame
// corruption), and possibly after recording it for later reinjection. It
// runs before the FaultInjector, so channel faults apply to the mutated
// frame. Implementations must be deterministic given their RNG stream.
// to is -1 for broadcasts.
type Interceptor interface {
	Intercept(from, to int, msg Message) Message
}

// InterceptorFunc adapts a function to the Interceptor interface.
type InterceptorFunc func(from, to int, msg Message) Message

// Intercept invokes the function.
func (f InterceptorFunc) Intercept(from, to int, msg Message) Message { return f(from, to, msg) }

// Medium is the message-level shared radio: transmissions reach all
// physical neighbors of the sender after the frame airtime, unless the
// omnipresent jammer destroys the frame (decided once per transmission,
// since the jamming signal covers the whole neighborhood).
type Medium struct {
	engine    *sim.Engine
	jammer    Jammer
	adjacent  func(node int) []int
	chipLen   int
	chipRate  float64
	mu        float64
	observer  func(from, to int, msg Message, jammed bool)
	faults    FaultInjector
	intercept Interceptor
	handlers  map[int]Handler
	off       map[int]bool // nodes whose radio is switched off
	stats     Stats
}

// ErrRadioOff is returned for a transmission from a node whose radio is
// switched off (SetRadio): a crashed radio transmits nothing.
var ErrRadioOff = errors.New("radio: transmitter is switched off")

// MediumConfig configures the medium.
type MediumConfig struct {
	Engine *sim.Engine
	Jammer Jammer
	// Adjacent returns the current physical neighbors of a node. It is
	// consulted at delivery time, so mobility is honored.
	Adjacent func(node int) []int
	ChipLen  int     // N
	ChipRate float64 // R
	Mu       float64 // μ (ECC expansion; scales airtime)
	// Observer, when set, is invoked synchronously for every transmission
	// with the jam verdict (to = -1 for broadcasts). Used for tracing.
	Observer func(from, to int, msg Message, jammed bool)
	// Faults, when set, injects channel faults (loss, duplication, bounded
	// reorder) into every transmission that survived jamming.
	Faults FaultInjector
}

// NewMedium creates a medium.
func NewMedium(cfg MediumConfig) (*Medium, error) {
	switch {
	case cfg.Engine == nil:
		return nil, fmt.Errorf("radio: Engine must be set")
	case cfg.Jammer == nil:
		return nil, fmt.Errorf("radio: Jammer must be set")
	case cfg.Adjacent == nil:
		return nil, fmt.Errorf("radio: Adjacent must be set")
	case cfg.ChipLen < 1:
		return nil, fmt.Errorf("radio: ChipLen %d must be >= 1", cfg.ChipLen)
	case cfg.ChipRate <= 0:
		return nil, fmt.Errorf("radio: ChipRate %v must be positive", cfg.ChipRate)
	case cfg.Mu <= 0:
		return nil, fmt.Errorf("radio: Mu %v must be positive", cfg.Mu)
	}
	return &Medium{
		engine:   cfg.Engine,
		jammer:   cfg.Jammer,
		adjacent: cfg.Adjacent,
		chipLen:  cfg.ChipLen,
		chipRate: cfg.ChipRate,
		mu:       cfg.Mu,
		observer: cfg.Observer,
		faults:   cfg.Faults,
		handlers: map[int]Handler{},
		off:      map[int]bool{},
	}, nil
}

// SetInterceptor arms (or, with nil, disarms) the on-air interceptor; it
// is how an adversary is plugged into an already-built network.
func (m *Medium) SetInterceptor(i Interceptor) { m.intercept = i }

// SetRadio switches node's transmitter on or off. While it is off, the
// medium refuses the node's frames with ErrRadioOff before the jammer,
// the observer, the interceptor or the counters see them.
func (m *Medium) SetRadio(node int, on bool) { m.off[node] = !on }

// RadioOn reports whether node's radio is switched on (SetRadio).
func (m *Medium) RadioOn(node int) bool { return !m.off[node] }

// Attach registers node's receive handler.
func (m *Medium) Attach(node int, h Handler) {
	m.handlers[node] = h
}

// Airtime returns the on-air duration of a payload of the given bit length
// after ECC expansion: (1+μ)·bits·N/R.
func (m *Medium) Airtime(payloadBits int) sim.Time {
	return sim.Time((1 + m.mu) * float64(payloadBits) * float64(m.chipLen) / m.chipRate)
}

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// Broadcast transmits msg from the sender to every physical neighbor. The
// jam decision is made once per transmission; jammed frames are dropped
// (no receiver can de-spread them).
func (m *Medium) Broadcast(from int, msg Message) error {
	return m.transmit(from, -1, msg)
}

// Unicast transmits msg to one physical neighbor. Delivery still requires
// `to` to be within range at delivery time.
func (m *Medium) Unicast(from, to int, msg Message) error {
	if to < 0 {
		return fmt.Errorf("radio: invalid unicast target %d", to)
	}
	return m.transmit(from, to, msg)
}

func (m *Medium) transmit(from, to int, msg Message) error {
	if m.off[from] {
		return ErrRadioOff
	}
	if msg.PayloadBits <= 0 {
		return fmt.Errorf("radio: message payload bits %d must be positive", msg.PayloadBits)
	}
	m.stats.Transmissions++
	jammed := m.jammer.TryJam(Transmission{Code: msg.Code, Kind: msg.Kind})
	if jammed {
		m.stats.Jammed++
	}
	if m.observer != nil {
		m.observer(from, to, msg, jammed)
	}
	if !jammed && m.intercept != nil {
		msg = m.intercept.Intercept(from, to, msg)
	}
	var fd FaultDecision
	if !jammed && m.faults != nil {
		fd = m.faults.Decide(from, to, msg)
		switch {
		case fd.Drop:
			m.stats.Lost++
		case fd.Duplicate:
			m.stats.Duplicated++
		}
		if !fd.Drop && fd.Delay > 0 {
			m.stats.Delayed++
		}
	}
	airtime := m.Airtime(msg.PayloadBits)
	deliver := func() {
		for _, nbr := range m.adjacent(from) {
			if to >= 0 && nbr != to {
				continue
			}
			if h, ok := m.handlers[nbr]; ok {
				m.stats.Delivered++
				h(from, msg)
			}
		}
	}
	_, err := m.engine.Schedule(airtime+fd.Delay, func() {
		if jammed || fd.Drop {
			return
		}
		deliver()
		if fd.Duplicate {
			deliver()
		}
	})
	return err
}
