package radio

import (
	"fmt"
	"math/rand"

	"repro/internal/codepool"
	"repro/internal/sim"
)

// This file holds the fault-model adversaries that go beyond §IV-B: a
// partial-time (pulse) jammer in the style of the NR-DCSK anti-jamming
// analysis, and a sweep jammer that rotates its emitters across the
// compromised codes epoch by epoch. Both compose with the Jammer
// interface, so the medium and the protocol engine are oblivious to which
// adversary is active.

// PulseJammer is a duty-cycled (partial-time) adversary: it wraps any
// inner jammer and is only "on" for a fraction ρ of transmissions. While
// on, the inner jammer's verdict applies; while off, every message passes.
// A pulse that covers less than the μ/(1+μ) ECC budget of a frame cannot
// destroy it, so at message level the duty cycle collapses to a Bernoulli
// draw per transmission.
type PulseJammer struct {
	inner Jammer
	duty  float64
	rng   *rand.Rand
}

// NewPulseJammer wraps inner with an on-fraction duty in [0, 1].
func NewPulseJammer(inner Jammer, duty float64, rng *rand.Rand) (*PulseJammer, error) {
	if inner == nil {
		return nil, fmt.Errorf("radio: pulse inner jammer must be set")
	}
	if duty < 0 || duty > 1 {
		return nil, fmt.Errorf("radio: pulse duty %v outside [0, 1]", duty)
	}
	if rng == nil {
		return nil, fmt.Errorf("radio: rng must be set")
	}
	return &PulseJammer{inner: inner, duty: duty, rng: rng}, nil
}

// TryJam draws the duty-cycle Bernoulli, then defers to the inner model.
// The inner verdict is evaluated first so the inner jammer's RNG stream
// advances identically regardless of the pulse phase — same-seed runs with
// different duty cycles stay comparable.
func (j *PulseJammer) TryJam(tx Transmission) bool {
	verdict := j.inner.TryJam(tx)
	return verdict && j.rng.Float64() < j.duty
}

// SweepJammer rotates a fixed-size window of target codes across its
// compromised set, advancing one window per epoch: with c compromised
// codes and a window of w emitters, epoch e reactively jams the codes
// ranked [e·w mod c, e·w+w) in the sorted compromised enumeration. It
// models an adversary with fewer correlator chains than known codes that
// schedules them round-robin instead of picking randomly.
type SweepJammer struct {
	compromised *codepool.CodeSet
	window      int
	epoch       sim.Time
	clock       func() sim.Time
}

// NewSweepJammer creates the jammer. window is the number of codes it can
// target simultaneously; epoch the rotation period in virtual seconds;
// clock the simulation clock (typically Engine.Now).
func NewSweepJammer(compromised *codepool.CodeSet, window int, epoch sim.Time, clock func() sim.Time) (*SweepJammer, error) {
	if window < 1 {
		return nil, fmt.Errorf("radio: sweep window %d must be >= 1", window)
	}
	if epoch <= 0 {
		return nil, fmt.Errorf("radio: sweep epoch %v must be positive", epoch)
	}
	if clock == nil {
		return nil, fmt.Errorf("radio: sweep clock must be set")
	}
	return &SweepJammer{compromised: compromised, window: window, epoch: epoch, clock: clock}, nil
}

// TryJam destroys a transmission iff its code falls inside the current
// epoch's target window (session codes remain safe, as for the §IV-B
// models).
func (j *SweepJammer) TryJam(tx Transmission) bool {
	if tx.Code == SessionCode {
		return false
	}
	rank := j.compromised.Rank(tx.Code)
	if rank < 0 {
		return false
	}
	c := j.compromised.Len()
	if j.window >= c {
		return true
	}
	e := int(j.clock() / j.epoch)
	start := (e * j.window) % c
	// Window [start, start+window) on the rank circle of length c.
	off := (rank - start + c) % c
	return off < j.window
}
