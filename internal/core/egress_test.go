package core

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/analysis"
	"repro/internal/radio"
	"repro/internal/wire"
)

func egressTestParams() analysis.Params {
	p := analysis.Defaults()
	p.N = 12
	p.M = 8
	p.L = 4
	p.Q = 0
	return p
}

// checkCanonicalFrame fails t unless msg's frame decodes under n's limits
// as the kind the medium was told, and its PayloadBits is the size
// wire.PayloadBits gives the decoded payload.
func checkCanonicalFrame(t *testing.T, n *Network, from, to int, msg radio.Message) {
	t.Helper()
	kind, payload, err := wire.Decode(msg.Frame, n.limits)
	if err != nil {
		t.Errorf("%d→%d: decoder rejected a %s frame: %v", from, to, wire.KindName(msg.Kind), err)
		return
	}
	if kind != msg.Kind {
		t.Errorf("%d→%d: frame decodes as kind %d, medium was told %d", from, to, kind, msg.Kind)
	}
	if want := wire.PayloadBits(n.params, payload); msg.PayloadBits != want {
		t.Errorf("%d→%d: %s carries PayloadBits %d, its payload's size is %d", from, to, wire.KindName(kind), msg.PayloadBits, want)
	}
}

// TestEveryTransmissionIsCanonicalWireFrame: every frame the engine puts
// on the air — broadcasts and unicasts alike — is an encoded wire frame
// that the receiver's decoder accepts with the kind the medium was told,
// sized by wire.PayloadBits, and the interceptor sees exactly the
// transmissions the medium counts.
func TestEveryTransmissionIsCanonicalWireFrame(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{Params: egressTestParams(), Seed: 7, Jammer: JamNone})
	if err != nil {
		t.Fatal(err)
	}
	var seen, broadcasts, unicasts int
	n.medium.SetInterceptor(radio.InterceptorFunc(func(from, to int, msg radio.Message) radio.Message {
		seen++
		if to < 0 {
			broadcasts++
		} else {
			unicasts++
		}
		checkCanonicalFrame(t, n, from, to, msg)
		return msg
	}))
	if err := n.RunDNDP(1.0); err != nil {
		t.Fatal(err)
	}
	if err := n.RunMNDP(1.0); err != nil { // M-NDP adds the unicast paths
		t.Fatal(err)
	}
	if broadcasts == 0 || unicasts == 0 {
		t.Fatalf("saw %d broadcasts and %d unicasts; want both", broadcasts, unicasts)
	}
	if got := n.MediumStats().Transmissions; got != seen {
		t.Fatalf("MediumStats().Transmissions = %d, interceptor saw %d", got, seen)
	}
}

// TestAdversaryInjectionsAreCanonicalWireFrames: the adversaries that
// encode their own frames — the forger and the §V-D flood — put canonical
// frames on the air too, sized like honest ones: a flooded AUTH1 has an
// honest AUTH1's airtime. (BitFlip corrupts frames on purpose.)
func TestAdversaryInjectionsAreCanonicalWireFrames(t *testing.T) {
	t.Run("forge", func(t *testing.T) {
		net, _ := byzantineNet(t, 74)
		b, err := net.ArmAdversary(3, adversary.Forge)
		if err != nil {
			t.Fatal(err)
		}
		net.medium.SetInterceptor(radio.InterceptorFunc(func(from, to int, msg radio.Message) radio.Message {
			checkCanonicalFrame(t, net, from, to, msg)
			return b.Intercept(from, to, msg)
		}))
		if err := net.RunDNDP(1); err != nil {
			t.Fatal(err)
		}
		if b.Counts().Injected == 0 {
			t.Fatal("forger injected nothing")
		}
	})
	t.Run("flood", func(t *testing.T) {
		net := dosNetwork(t, 6, 4, 6, 1000, 21) // node 5 is the attacker
		var honest, flooded []float64           // AUTH1 airtimes
		net.medium.SetInterceptor(radio.InterceptorFunc(func(from, to int, msg radio.Message) radio.Message {
			checkCanonicalFrame(t, net, from, to, msg)
			if msg.Kind == wire.KindAuth1 {
				airtime := float64(net.medium.Airtime(msg.PayloadBits))
				if from == 5 {
					flooded = append(flooded, airtime)
				} else {
					honest = append(honest, airtime)
				}
			}
			return msg
		}))
		if err := net.RunDNDP(1); err != nil {
			t.Fatal(err)
		}
		if _, err := net.RunDoSAttack(5, 2); err != nil {
			t.Fatal(err)
		}
		if len(honest) == 0 || len(flooded) == 0 {
			t.Fatalf("saw %d honest and %d flooded AUTH1 frames; want both", len(honest), len(flooded))
		}
		for _, a := range append(honest, flooded...) {
			if a != honest[0] {
				t.Fatalf("AUTH1 airtime %v s, want an honest AUTH1's %v s", a, honest[0])
			}
		}
	})
}
