// Package radio provides the message-level shared medium and the adversary
// models of §IV-B. At this fidelity a transmission is characterized by the
// spread code it uses; the omnipresent jammer decides per transmission
// whether it destroys the message (i.e. corrupts more than the μ/(1+μ)
// ECC budget using the correct code). The chip-level counterpart of this
// abstraction lives in internal/dsss and is validated against it in tests:
// the decision procedure here is exactly the success model proved in
// Theorem 1. Which jammer a run uses is one decision, core.JammerKind
// (zero value reactive), and core.NewJammer is the one place that builds
// a Jammer from it, for the campaign and the event engine alike.
package radio

import (
	"fmt"
	"math/rand"

	"repro/internal/codepool"
)

// SessionCode marks a transmission spread with a derived session code
// rather than a pool code.
const SessionCode codepool.CodeID = -1

// Transmission describes one on-air message for the jammer.
type Transmission struct {
	// Code is the pool code in use, or SessionCode.
	Code codepool.CodeID
	// Kind is the protocol message kind, available to jammers that
	// distinguish message types (the paper's "intelligent attack" on the
	// redundancy design distinguishes the four D-NDP messages).
	Kind int
}

// Jammer decides the fate of transmissions. Implementations must be
// deterministic given their RNG stream.
type Jammer interface {
	// TryJam reports whether the jammer destroys this transmission.
	TryJam(tx Transmission) bool
}

// NoJammer is the benign baseline.
type NoJammer struct{}

// TryJam never jams.
func (NoJammer) TryJam(Transmission) bool { return false }

// ReactiveJammer implements the reactive model: on every transmission it
// scans its compromised codes, identifies the one in use (assumed to
// succeed within the first 1/(1+μ) of the message, per §IV-B), and jams
// the remainder. It therefore destroys exactly the transmissions whose
// code it knows.
type ReactiveJammer struct {
	compromised *codepool.CodeSet
}

// NewReactiveJammer creates the jammer with the given compromised-code
// knowledge.
func NewReactiveJammer(compromised *codepool.CodeSet) *ReactiveJammer {
	return &ReactiveJammer{compromised: compromised}
}

// TryJam succeeds iff the code in use is known to the jammer. A session
// code is a fresh secret of the two endpoints, so it is never known.
func (j *ReactiveJammer) TryJam(tx Transmission) bool {
	return tx.Code != SessionCode && j.compromised.Contains(tx.Code)
}

// RandomJammer implements the random model: on every transmission it picks
// random compromised codes and transmits jamming signals with them. With z
// parallel emitters and the constraint that a jamming signal must cover at
// least μ/(1+μ) of the message, it can try at most ⌊z(1+μ)/μ⌋ distinct
// codes per message, so it hits a compromised target code with probability
// β = min(z(1+μ)/(μ·c), 1) where c is the number of compromised codes
// (Theorem 1).
type RandomJammer struct {
	z           int
	mu          float64
	compromised *codepool.CodeSet
	rng         *rand.Rand
}

// NewRandomJammer creates the jammer. z is the number of parallel jamming
// signals; mu the ECC expansion factor of the victims.
func NewRandomJammer(z int, mu float64, compromised *codepool.CodeSet, rng *rand.Rand) (*RandomJammer, error) {
	if z < 0 {
		return nil, fmt.Errorf("radio: z=%d must be >= 0", z)
	}
	if mu <= 0 {
		return nil, fmt.Errorf("radio: μ=%v must be positive", mu)
	}
	if rng == nil {
		return nil, fmt.Errorf("radio: rng must be set")
	}
	return &RandomJammer{z: z, mu: mu, compromised: compromised, rng: rng}, nil
}

// Tries returns the number of distinct codes the jammer can attempt per
// message, ⌊z(1+μ)/μ⌋.
func (j *RandomJammer) Tries() int {
	return int(float64(j.z) * (1 + j.mu) / j.mu)
}

// TryJam draws the Theorem-1 Bernoulli: the target must be a compromised
// code and among the jammer's random picks for this message.
func (j *RandomJammer) TryJam(tx Transmission) bool {
	// A session code is a fresh 2^N-sized secret; random picks from the
	// pool never match it.
	if tx.Code == SessionCode || !j.compromised.Contains(tx.Code) {
		return false
	}
	c := j.compromised.Len()
	if c == 0 {
		return false
	}
	tries := j.Tries()
	if tries >= c {
		return true
	}
	// The target is one specific element of the c known codes; picking
	// `tries` distinct codes uniformly hits it with probability tries/c.
	return j.rng.Float64() < float64(tries)/float64(c)
}

// IntelligentJammer models the "more intelligent attack" of §V-B: it
// deliberately lets some message kinds through (the HELLO, so the victim
// commits to a spread code) and reactively jams everything else it has the
// code for. The x-sub-session redundancy design exists to defeat exactly
// this adversary.
type IntelligentJammer struct {
	compromised *codepool.CodeSet
	pass        map[int]bool
}

// NewIntelligentJammer creates the jammer; passKinds lists the message
// kinds it deliberately does not jam.
func NewIntelligentJammer(compromised *codepool.CodeSet, passKinds []int) *IntelligentJammer {
	pass := make(map[int]bool, len(passKinds))
	for _, k := range passKinds {
		pass[k] = true
	}
	return &IntelligentJammer{compromised: compromised, pass: pass}
}

// TryJam jams reactively except for the pass-listed kinds.
func (j *IntelligentJammer) TryJam(tx Transmission) bool {
	return !j.pass[tx.Kind] && tx.Code != SessionCode && j.compromised.Contains(tx.Code)
}
