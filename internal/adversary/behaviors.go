package adversary

import (
	"fmt"

	"repro/internal/ibc"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ForgedIDBase is where forged sender identities start. Honest nodes hold
// IDs 0..N-1, so an adversary is armed only while N <= ForgedIDBase, and
// a forgery never collides with an honest node.
const ForgedIDBase = 50000

// forgedIDs allocates forged sender identities upward from ForgedIDBase,
// refusing to run past the 16-bit ID space instead of wrapping into
// honest IDs.
type forgedIDs struct{ used int }

// take reserves k consecutive identities and returns the first.
func (a *forgedIDs) take(k int) (ibc.NodeID, error) {
	first := ForgedIDBase + a.used
	if first+k-1 > 1<<16-1 {
		return 0, fmt.Errorf("adversary: %d forged identities from %d run past the 16-bit ID space", k, first)
	}
	a.used += k
	return ibc.NodeID(first), nil
}

// base is what every behavior shares: its profile, the codec caps derived
// from it, its counters, and the one path its own frames take onto the
// air.
type base struct {
	p      Profile
	lim    wire.Limits
	counts Counts
}

func (b *base) Counts() Counts { return b.counts }
func (b *base) Launch() error  { return nil }

// observe counts a frame on the air and reports whether the behavior may
// act on it: never on its own injections, and never while its own radio
// is off — a crashed adversary neither hears nor touches the air.
func (b *base) observe(from int) bool {
	if from == b.p.Node || !b.p.Tx.RadioOn(b.p.Node) {
		return false
	}
	b.counts.Observed++
	return true
}

// inject transmits msg from the adversary's radio after delay (to = -1
// broadcasts). It counts as injected only if the medium accepts it: a
// crashed adversary's radio is off.
func (b *base) inject(delay sim.Time, to int, msg radio.Message) error {
	_, err := b.p.Engine.Schedule(delay, func() {
		var err error
		if to < 0 {
			err = b.p.Tx.Broadcast(b.p.Node, msg)
		} else {
			err = b.p.Tx.Unicast(b.p.Node, to, msg)
		}
		if err == nil {
			b.counts.Injected++
		}
	})
	return err
}

// fill overwrites buf with random bytes and returns it.
func (b *base) fill(buf []byte) []byte {
	for i := range buf {
		buf[i] = byte(b.p.Rng.Intn(256))
	}
	return buf
}

// replayer records AUTH frames off the air and reinjects byte-exact
// copies after ReplayDelay. The copy is taken at capture time
// (copy-on-store), so later mutation of the original buffer cannot change
// what is replayed, and the replayed frame is transmitted from the
// adversary's own radio — its physical neighbors hear it.
type replayer struct {
	base
	scheduled int
}

func (r *replayer) Intercept(from, to int, msg radio.Message) radio.Message {
	if !r.observe(from) {
		return msg // own injections are not re-recorded
	}
	if msg.Kind != wire.KindAuth1 && msg.Kind != wire.KindAuth2 {
		return msg
	}
	if r.scheduled >= maxInjections {
		return msg
	}
	r.scheduled++
	r.counts.Recorded++
	rec := msg
	rec.Frame = append([]byte(nil), msg.Frame...)
	_ = r.inject(r.p.ReplayDelay, -1, rec) // a non-negative delay always schedules
	return msg
}

// forger decodes observed AUTH1 frames, substitutes a fresh forged sender
// identity and a random MAC, and injects the re-encoded forgery — a
// structurally perfect frame whose only flaw is cryptographic.
type forger struct {
	base
	ids       forgedIDs
	scheduled int
}

func (f *forger) Intercept(from, to int, msg radio.Message) radio.Message {
	if !f.observe(from) {
		return msg
	}
	if msg.Kind != wire.KindAuth1 || f.scheduled >= maxInjections {
		return msg
	}
	kind, payload, err := wire.Decode(msg.Frame, f.lim)
	if err != nil || kind != wire.KindAuth1 {
		return msg
	}
	auth := payload.(wire.Auth)
	if auth.Sender, err = f.ids.take(1); err != nil {
		return msg
	}
	f.fill(auth.MAC)
	forged, err := wire.Encode(wire.KindAuth1, auth, f.lim)
	if err != nil {
		return msg
	}
	f.scheduled++
	inj := msg
	inj.Frame = forged
	_ = f.inject(0, -1, inj) // a zero delay always schedules
	return msg
}

// bitFlipper XORs flipBytes random bytes of a frame in flight with
// probability flipProb, modeling a Byzantine relay (or targeted
// interference) that mangles bytes the DSSS layer's ECC failed to fix.
// The corruption happens on a copy: the transmitter's buffer is never
// touched.
type bitFlipper struct{ base }

func (b *bitFlipper) Intercept(from, to int, msg radio.Message) radio.Message {
	if !b.observe(from) {
		return msg
	}
	if len(msg.Frame) == 0 {
		return msg
	}
	if b.p.Rng.Float64() >= flipProb {
		return msg
	}
	cp := append([]byte(nil), msg.Frame...)
	for i := 0; i < flipBytes; i++ {
		pos := b.p.Rng.Intn(len(cp))
		cp[pos] ^= byte(1 + b.p.Rng.Intn(255)) // nonzero mask: always flips
	}
	b.counts.Corrupted++
	out := msg
	out.Frame = cp
	return out
}

// flooder is the §V-D DoS attack and the only code that builds its
// frames: waves of forged AUTH1 frames under fresh identities, one per
// (victim, compromised code) target, paced at FloodInterval. Both
// core.RunDoSAttack and the chaos matrix's Flood cells run it.
type flooder struct {
	base
	waves int
	ids   forgedIDs
}

// NewFlood builds a Flood adversary that injects the given number of
// waves; New(Flood, ...) injects three.
func NewFlood(profile Profile, waves int) (Byzantine, error) {
	b, err := newBase(profile)
	if err != nil {
		return nil, err
	}
	if waves < 1 {
		return nil, fmt.Errorf("adversary: flood waves %d must be >= 1", waves)
	}
	return &flooder{base: b, waves: waves}, nil
}

func (f *flooder) Intercept(from, to int, msg radio.Message) radio.Message {
	f.observe(from)
	return msg
}

// Launch reserves every wave's forged identities up front, so a flood
// that would exhaust the ID space schedules nothing.
func (f *flooder) Launch() error {
	sender, err := f.ids.take(f.waves * len(f.p.FloodTargets))
	if err != nil {
		return err
	}
	for wave := 0; wave < f.waves; wave++ {
		for _, tgt := range f.p.FloodTargets {
			auth := wire.Auth{
				Sender: sender,
				Peer:   ibc.NodeID(tgt.Victim),
				Nonce:  f.fill(make([]byte, f.lim.MaxNonce)),
				MAC:    f.fill(make([]byte, f.lim.MaxMAC)),
			}
			frame, err := wire.Encode(wire.KindAuth1, auth, f.lim)
			if err != nil {
				return err
			}
			sender++
			msg := radio.Message{Kind: wire.KindAuth1, Code: tgt.Code, PayloadBits: wire.PayloadBits(f.p.Params, auth), Frame: frame}
			if err := f.inject(f.p.FloodInterval*sim.Time(wave), tgt.Victim, msg); err != nil {
				return err
			}
		}
	}
	return nil
}
