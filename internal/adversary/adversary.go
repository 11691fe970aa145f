// Package adversary implements Byzantine on-air behaviors for the JR-SND
// simulation: insiders (§III) who hold compromised spread codes and —
// unlike the jammers, which only destroy frames — record, replay, forge,
// corrupt, and flood protocol messages as bytes. Every behavior plugs into
// radio.Medium as an Interceptor, composing with the jammer and the
// channel FaultInjector from the fault layer, and operates strictly on
// wire frames: an adversary can only do what hostile bytes can do, which
// is exactly what the codec hardening and the core defenses are measured
// against.
//
// All randomness comes from the caller-supplied seed-derived stream and
// all timing from the discrete-event engine, so adversarial runs replay
// byte-for-byte under the same seed.
package adversary

import (
	"fmt"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/codepool"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Kind selects a Byzantine behavior.
type Kind int

// Byzantine behavior kinds.
const (
	// None disables the adversary (the zero value).
	None Kind = iota
	// Replay records valid AUTH frames off the air and reinjects exact
	// copies later — after the victims' handshake records were reaped —
	// probing the replay-window defense.
	Replay
	// Forge decodes observed AUTH1 frames, rewrites the sender identity
	// and randomizes the MAC, and injects the re-encoded forgery — a
	// semantically well-formed frame that must die at MAC verification.
	Forge
	// BitFlip corrupts k random bytes of a frame in flight (post-encode,
	// pre-decode), driving the decoder's error taxonomy and the MAC/
	// signature checks with near-valid bytes.
	BitFlip
	// Flood drives the §V-D DoS path through the codec: waves of forged
	// AUTH1 frames under fresh identities at the victims holding the
	// attacker's compromised codes.
	Flood
)

// Kinds lists every active behavior, in a stable order.
var Kinds = []Kind{Replay, Forge, BitFlip, Flood}

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Replay:
		return "replay"
	case Forge:
		return "forge"
	case BitFlip:
		return "bitflip"
	case Flood:
		return "flood"
	default:
		return "unknown"
	}
}

// ParseKind maps a CLI flag value to a Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range append([]Kind{None}, Kinds...) {
		if k.String() == s {
			return k, nil
		}
	}
	return None, fmt.Errorf("adversary: unknown kind %q (want replay, forge, bitflip, or flood)", s)
}

// Counts reports what an adversary did, for assertions and reports.
type Counts struct {
	Observed  int // frames seen on the air (excluding its own)
	Recorded  int // frames captured for later reinjection
	Injected  int // frames this adversary transmitted
	Corrupted int // frames mutated in flight
}

// Byzantine is an armed adversary: an on-air interceptor plus an optional
// active phase (Launch) and introspection.
type Byzantine interface {
	radio.Interceptor
	// Launch schedules the behavior's active transmissions (flood waves);
	// passive behaviors no-op. Call once, before running the engine.
	Launch() error
	// Counts returns the activity counters so far.
	Counts() Counts
}

// FloodTarget is one (victim, compromised code) pair a Flood adversary
// hammers.
type FloodTarget struct {
	Victim int
	Code   codepool.CodeID
}

// Fixed behavior knobs.
const (
	// maxInjections caps scheduled reinjections/forgeries (Replay, Forge)
	// so a long run cannot exhaust the forged-ID space.
	maxInjections = 64
	// flipProb is the per-frame corruption probability (BitFlip).
	flipProb = 0.3
	// flipBytes is how many random bytes are XORed per corrupted frame
	// (BitFlip).
	flipBytes = 3
	// floodWaves is how many waves New(Flood, ...) injects; NewFlood
	// takes the count as an argument.
	floodWaves = 3
)

// Profile configures a Byzantine behavior. The core network derives
// every field from its topology and validated parameters, one way for
// ArmAdversary and RunDoSAttack; only Flood reads FloodTargets.
type Profile struct {
	Node   int           // the adversary's (compromised) node index
	Rng    *rand.Rand    // seed-derived stream; owned by the adversary
	Engine *sim.Engine   // event engine for scheduling injections
	Tx     *radio.Medium // the medium to inject through
	// Params is the network's Table I set; forged fields, codec caps and
	// frame sizes derive from it as they do for honest nodes.
	Params analysis.Params

	// ReplayDelay is how long after capture a recorded frame is
	// reinjected (Replay). Should exceed the victims' session timeout so
	// the replay lands on reaped handshake state.
	ReplayDelay sim.Time

	// FloodTargets are the (victim, code) pairs to hammer (Flood).
	FloodTargets []FloodTarget
	// FloodInterval paces the waves (Flood).
	FloodInterval sim.Time
}

// newBase validates the profile and derives the codec caps from its
// Params.
func newBase(p Profile) (base, error) {
	switch {
	case p.Rng == nil:
		return base{}, fmt.Errorf("adversary: Rng must be set")
	case p.Engine == nil:
		return base{}, fmt.Errorf("adversary: Engine must be set")
	case p.Tx == nil:
		return base{}, fmt.Errorf("adversary: Tx must be set")
	}
	if err := p.Params.Validate(); err != nil {
		return base{}, fmt.Errorf("adversary: %w", err)
	}
	return base{p: p, lim: wire.LimitsFromParams(p.Params)}, nil
}

// New builds an armed behavior of the given kind.
func New(kind Kind, profile Profile) (Byzantine, error) {
	b, err := newBase(profile)
	if err != nil {
		return nil, err
	}
	switch kind {
	case Replay:
		return &replayer{base: b}, nil
	case Forge:
		return &forger{base: b}, nil
	case BitFlip:
		return &bitFlipper{b}, nil
	case Flood:
		return &flooder{base: b, waves: floodWaves}, nil
	default:
		return nil, fmt.Errorf("adversary: kind %d has no behavior", kind)
	}
}
