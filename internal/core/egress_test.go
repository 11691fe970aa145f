package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/radio"
	"repro/internal/wire"
)

func conduitTestParams() analysis.Params {
	p := analysis.Defaults()
	p.N = 12
	p.M = 8
	p.L = 4
	p.Q = 0
	return p
}

// TestEveryTransmissionIsCanonicalWireFrame: every frame the engine puts
// on the air — broadcasts and unicasts alike — is an encoded wire frame
// that the receiver's decoder accepts with the kind the medium was told,
// and the interceptor sees exactly the transmissions the medium counts.
func TestEveryTransmissionIsCanonicalWireFrame(t *testing.T) {
	n, err := NewNetwork(NetworkConfig{Params: conduitTestParams(), Seed: 7})
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
		frame, ok := msg.Payload.([]byte)
		if !ok {
			t.Errorf("%d→%d: payload %T is not a wire frame", from, to, msg.Payload)
			return msg
		}
		kind, _, err := wire.Decode(frame, n.limits)
		if err != nil {
			t.Errorf("%d→%d: decoder rejected the engine's own frame: %v", from, to, err)
		} else if kind != msg.Kind {
			t.Errorf("%d→%d: frame decodes as kind %d, medium was told %d", from, to, kind, msg.Kind)
		}
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
