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
	// Kind identifies the behavior.
	Kind() Kind
	// Counts returns the activity counters so far.
	Counts() Counts
}

// Transmitter is the medium surface an adversary injects through;
// *radio.Medium satisfies it.
type Transmitter interface {
	Broadcast(from int, msg radio.Message) error
	Unicast(from, to int, msg radio.Message) error
}

// FloodTarget is one (victim, compromised code) pair a Flood adversary
// hammers.
type FloodTarget struct {
	Victim int
	Code   codepool.CodeID
}

// Profile configures a Byzantine behavior. Node, Rng, Engine, Tx, and
// Limits are required; the per-behavior knobs default sensibly when zero.
type Profile struct {
	Node   int         // the adversary's (compromised) node index
	Rng    *rand.Rand  // seed-derived stream; owned by the adversary
	Engine *sim.Engine // event engine for scheduling injections
	Tx     Transmitter // the medium to inject through
	Limits wire.Limits // codec caps for decoding/forging frames

	// MaxInjections caps scheduled reinjections/forgeries (Replay, Forge)
	// so a long run cannot exhaust the forged-ID space. Default 64.
	MaxInjections int
	// ReplayDelay is how long after capture a recorded frame is
	// reinjected (Replay). Should exceed the victims' session timeout so
	// the replay lands on reaped handshake state. Default 1.0 s.
	ReplayDelay sim.Time

	// FlipProb is the per-frame corruption probability (BitFlip).
	// Default 0.3.
	FlipProb float64
	// FlipBytes is how many random bytes are XORed per corrupted frame
	// (BitFlip). Default 3.
	FlipBytes int

	// NonceBytes and MACBytes size the forged AUTH fields (Forge, Flood).
	// Defaults 3 and 20 (Table I widths).
	NonceBytes, MACBytes int
	// AuthBits is the airtime size of a forged AUTH1 (Flood). Default 196.
	AuthBits int
	// FloodTargets are the (victim, code) pairs to hammer (Flood).
	FloodTargets []FloodTarget
	// FloodWaves is how many waves to inject (Flood). Default 3.
	FloodWaves int
	// FloodInterval paces the waves (Flood). Default 0.011 s (≈ t_key).
	FloodInterval sim.Time
}

func (p *Profile) applyDefaults() {
	if p.MaxInjections == 0 {
		p.MaxInjections = 64
	}
	if p.ReplayDelay == 0 {
		p.ReplayDelay = 1.0
	}
	if p.FlipProb == 0 {
		p.FlipProb = 0.3
	}
	if p.FlipBytes == 0 {
		p.FlipBytes = 3
	}
	if p.NonceBytes == 0 {
		p.NonceBytes = 3
	}
	if p.MACBytes == 0 {
		p.MACBytes = 20
	}
	if p.AuthBits == 0 {
		p.AuthBits = 196
	}
	if p.FloodWaves == 0 {
		p.FloodWaves = 3
	}
	if p.FloodInterval == 0 {
		p.FloodInterval = 0.011
	}
}

func (p *Profile) validate() error {
	switch {
	case p.Rng == nil:
		return fmt.Errorf("adversary: Rng must be set")
	case p.Engine == nil:
		return fmt.Errorf("adversary: Engine must be set")
	case p.Tx == nil:
		return fmt.Errorf("adversary: Tx must be set")
	}
	return p.Limits.Validate()
}

// New builds an armed behavior of the given kind.
func New(kind Kind, profile Profile) (Byzantine, error) {
	profile.applyDefaults()
	if err := profile.validate(); err != nil {
		return nil, err
	}
	switch kind {
	case Replay:
		return &replayer{p: profile}, nil
	case Forge:
		return &forger{p: profile}, nil
	case BitFlip:
		return &bitFlipper{p: profile}, nil
	case Flood:
		return &flooder{p: profile}, nil
	default:
		return nil, fmt.Errorf("adversary: kind %d has no behavior", kind)
	}
}
