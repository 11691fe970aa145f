package adversary

import (
	"repro/internal/ibc"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/wire"
)

// forgedIDBase is where forged sender identities start — far above any
// simulated deployment's ID range, so a forgery can never collide with an
// honest node.
const forgedIDBase = 50000

// replayer records AUTH frames off the air and reinjects byte-exact
// copies after ReplayDelay. The copy is taken at capture time
// (copy-on-store), so later mutation of the original buffer cannot change
// what is replayed, and the replayed frame is transmitted from the
// adversary's own radio — its physical neighbors hear it.
type replayer struct {
	p         Profile
	counts    Counts
	scheduled int
}

func (r *replayer) Counts() Counts { return r.counts }
func (r *replayer) Launch() error  { return nil }

func (r *replayer) Intercept(from, to int, msg radio.Message) radio.Message {
	if from == r.p.Node {
		return msg // own injections are not re-recorded
	}
	r.counts.Observed++
	frame, ok := msg.Payload.([]byte)
	if !ok || (msg.Kind != wire.KindAuth1 && msg.Kind != wire.KindAuth2) {
		return msg
	}
	if r.scheduled >= maxInjections {
		return msg
	}
	r.scheduled++
	r.counts.Recorded++
	rec := msg
	rec.Payload = append([]byte(nil), frame...)
	r.p.Engine.MustSchedule(r.p.ReplayDelay, func() {
		r.counts.Injected++
		_ = r.p.Tx.Broadcast(r.p.Node, rec)
	})
	return msg
}

// forger decodes observed AUTH1 frames, substitutes a fresh forged sender
// identity and a random MAC, and injects the re-encoded forgery — a
// structurally perfect frame whose only flaw is cryptographic.
type forger struct {
	p         Profile
	counts    Counts
	scheduled int
}

func (f *forger) Counts() Counts { return f.counts }
func (f *forger) Launch() error  { return nil }

func (f *forger) Intercept(from, to int, msg radio.Message) radio.Message {
	if from == f.p.Node {
		return msg
	}
	f.counts.Observed++
	frame, ok := msg.Payload.([]byte)
	if !ok || msg.Kind != wire.KindAuth1 || f.scheduled >= maxInjections {
		return msg
	}
	kind, payload, err := wire.Decode(frame, f.p.Limits)
	if err != nil || kind != wire.KindAuth1 {
		return msg
	}
	auth := payload.(wire.Auth)
	auth.Sender = ibc.NodeID(forgedIDBase + f.scheduled)
	for i := range auth.MAC {
		auth.MAC[i] = byte(f.p.Rng.Intn(256))
	}
	forged, err := wire.Encode(wire.KindAuth1, auth, f.p.Limits)
	if err != nil {
		return msg
	}
	f.scheduled++
	inj := msg
	inj.Payload = forged
	f.p.Engine.MustSchedule(0, func() {
		f.counts.Injected++
		_ = f.p.Tx.Broadcast(f.p.Node, inj)
	})
	return msg
}

// bitFlipper XORs flipBytes random bytes of a frame in flight with
// probability flipProb, modeling a Byzantine relay (or targeted
// interference) that mangles bytes the DSSS layer's ECC failed to fix.
// The corruption happens on a copy: the transmitter's buffer is never
// touched.
type bitFlipper struct {
	p      Profile
	counts Counts
}

func (b *bitFlipper) Counts() Counts { return b.counts }
func (b *bitFlipper) Launch() error  { return nil }

func (b *bitFlipper) Intercept(from, to int, msg radio.Message) radio.Message {
	if from == b.p.Node {
		return msg
	}
	b.counts.Observed++
	frame, ok := msg.Payload.([]byte)
	if !ok || len(frame) == 0 {
		return msg
	}
	if b.p.Rng.Float64() >= flipProb {
		return msg
	}
	cp := append([]byte(nil), frame...)
	for i := 0; i < flipBytes; i++ {
		pos := b.p.Rng.Intn(len(cp))
		cp[pos] ^= byte(1 + b.p.Rng.Intn(255)) // nonzero mask: always flips
	}
	b.counts.Corrupted++
	out := msg
	out.Payload = cp
	return out
}

// flooder is the §V-D DoS attack driven through the codec: waves of
// forged AUTH1 frames under fresh identities, one per (victim,
// compromised code) target, paced at FloodInterval.
type flooder struct {
	p      Profile
	counts Counts
}

func (f *flooder) Counts() Counts { return f.counts }

func (f *flooder) Intercept(from, to int, msg radio.Message) radio.Message {
	if from != f.p.Node {
		f.counts.Observed++
	}
	return msg
}

func (f *flooder) Launch() error {
	fake := forgedIDBase
	for wave := 0; wave < floodWaves; wave++ {
		at := f.p.FloodInterval * sim.Time(wave)
		for _, tgt := range f.p.FloodTargets {
			nonce := f.randBytes(f.p.NonceBytes)
			mac := f.randBytes(f.p.MACBytes)
			auth := wire.Auth{
				Sender: ibc.NodeID(fake),
				Peer:   ibc.NodeID(tgt.Victim),
				Nonce:  nonce,
				MAC:    mac,
			}
			fake++
			frame, err := wire.Encode(wire.KindAuth1, auth, f.p.Limits)
			if err != nil {
				return err
			}
			tgt := tgt
			msg := radio.Message{
				Kind:        wire.KindAuth1,
				Code:        tgt.Code,
				PayloadBits: f.p.AuthBits,
				Payload:     frame,
			}
			if _, err := f.p.Engine.Schedule(at, func() {
				f.counts.Injected++
				_ = f.p.Tx.Unicast(f.p.Node, tgt.Victim, msg)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *flooder) randBytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(f.p.Rng.Intn(256))
	}
	return out
}
