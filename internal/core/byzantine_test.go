package core

import (
	"bytes"
	"testing"

	"repro/internal/adversary"
	"repro/internal/codepool"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/wire"
)

// byzantineNet builds a 4-node cluster with the Byzantine defenses and
// metrics enabled. Discovery has not run yet.
func byzantineNet(t *testing.T, seed int64) (*Network, *metrics.Registry) {
	t.Helper()
	p := smallParams(4, 5)
	reg := metrics.New()
	net, err := NewNetwork(NetworkConfig{
		Params:    p,
		Seed:      seed,
		Jammer:    JamNone,
		Positions: clusterPositions(4),
		Defense:   DefaultDefenseConfig(p),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, reg
}

func requireAllDiscovered(t *testing.T, net *Network, n int) {
	t.Helper()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !net.DiscoveredPair(a, b) {
				t.Fatalf("pair (%d,%d) not discovered", a, b)
			}
		}
	}
}

// TestReplayedAuthDroppedByNonceCache is the acceptance criterion: a
// byte-exact recording of a valid AUTH1, reinjected after the victim's
// handshake record was reaped, must be dropped by the replay window and
// counted — not re-open a handshake or force a key computation.
func TestReplayedAuthDroppedByNonceCache(t *testing.T) {
	net, reg := byzantineNet(t, 71)

	var recorded *radio.Message
	net.medium.SetInterceptor(radio.InterceptorFunc(func(from, to int, msg radio.Message) radio.Message {
		if recorded == nil && msg.Kind == wire.KindAuth1 {
			cp := msg
			cp.Frame = append([]byte(nil), msg.Frame...)
			recorded = &cp
		}
		return msg
	}))
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	net.medium.SetInterceptor(nil)
	requireAllDiscovered(t, net, 4) // defenses must not break honest discovery
	if recorded == nil {
		t.Fatal("no AUTH1 frame captured")
	}
	_, payload, err := wire.Decode(recorded.Frame, net.limits)
	if err != nil {
		t.Fatal(err)
	}
	auth := payload.(wire.Auth)
	victim := net.Node(int(auth.Peer))

	// Simulate the passage of time: the half-open GC reaped the completed
	// handshake record, but the nonce window remembers the verified nonce.
	delete(victim.responders, auth.Sender)
	keysBefore := victim.Stats().KeyComputations

	adv := 0
	for adv == int(auth.Sender) || adv == int(auth.Peer) {
		adv++
	}
	if err := net.medium.Broadcast(adv, *recorded); err != nil {
		t.Fatal(err)
	}
	if err := net.engine.Run(); err != nil {
		t.Fatal(err)
	}

	if got := reg.Snapshot().Counters["jrsnd_core_replays_dropped_total"]; got < 1 {
		t.Fatalf("replays_dropped = %v, want >= 1", got)
	}
	if victim.responders[auth.Sender] != nil {
		t.Fatal("replayed AUTH1 re-opened a handshake record")
	}
	if got := victim.Stats().KeyComputations; got != keysBefore {
		t.Fatalf("replay forced %d key computations", got-keysBefore)
	}
}

// TestArmAdversaryReplayEndToEnd drives the Replay behavior through
// ArmAdversary: the compromised node records AUTH frames off the air and
// reinjects them; the protocol must finish discovery untouched and the
// adversary's counters must show real activity.
func TestArmAdversaryReplayEndToEnd(t *testing.T) {
	net, _ := byzantineNet(t, 72)
	b, err := net.ArmAdversary(3, adversary.Replay)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	requireAllDiscovered(t, net, 3)
	c := b.Counts()
	if c.Recorded == 0 || c.Injected == 0 {
		t.Fatalf("replay adversary idle: %+v", c)
	}
	if c.Injected > c.Recorded {
		t.Fatalf("injected %d frames but only recorded %d", c.Injected, c.Recorded)
	}
}

// TestFloodRateLimited: the §V-D flood through the codec — forged AUTH1
// waves under fresh identities — must hit the per-transmitter half-open
// budget: the victims refuse most records, count the refusals, and honest
// discovery still completes.
func TestFloodRateLimited(t *testing.T) {
	net, reg := byzantineNet(t, 73)
	b, err := net.ArmAdversary(3, adversary.Flood)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	requireAllDiscovered(t, net, 3)
	if c := b.Counts(); c.Injected == 0 {
		t.Fatalf("flooder injected nothing: %+v", c)
	}
	if got := reg.Snapshot().Counters["jrsnd_core_ratelimited_total"]; got < 1 {
		t.Fatalf("ratelimited = %v, want >= 1", got)
	}
	burst := halfOpenBurst
	for i := 0; i < 3; i++ {
		nd := net.Node(i)
		// Per victim: at most `burst` flood records (+ small refill) from the
		// attacker's radio, plus one record per honest peer.
		if got, limit := len(nd.responders), burst+2+3; got > limit {
			t.Fatalf("node %d holds %d handshake records, want <= %d", i, got, limit)
		}
		for id := range nd.neighbors {
			if int(id) >= 50000 {
				t.Fatalf("node %d accepted forged identity %d", i, id)
			}
		}
	}
}

// TestForgerKilledAtMAC: forged AUTH1 frames — structurally perfect,
// cryptographically wrong — must die at MAC verification and never
// produce a logical neighbor.
func TestForgerKilledAtMAC(t *testing.T) {
	net, _ := byzantineNet(t, 74)
	b, err := net.ArmAdversary(3, adversary.Forge)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if c := b.Counts(); c.Injected == 0 {
		t.Fatalf("forger injected nothing: %+v", c)
	}
	macFailures := 0
	for i := 0; i < 3; i++ {
		macFailures += net.Node(i).Stats().MACFailures
		for id := range net.Node(i).neighbors {
			if int(id) >= 50000 {
				t.Fatalf("node %d accepted forged identity %d", i, id)
			}
		}
	}
	if macFailures == 0 {
		t.Fatal("no forgery reached MAC verification")
	}
}

// TestBitFlipperCountsDecodeErrors: frames corrupted in flight must be
// rejected by the decoder (or die at MAC/signature checks) and counted —
// never crash the engine or poison protocol state.
func TestBitFlipperCountsDecodeErrors(t *testing.T) {
	net, reg := byzantineNet(t, 75)
	b, err := net.ArmAdversary(3, adversary.BitFlip)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	if c := b.Counts(); c.Corrupted == 0 {
		t.Fatalf("bitflipper corrupted nothing: %+v", c)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["jrsnd_core_decode_errors_total"]; got < 1 {
		t.Fatalf("decode_errors = %v, want >= 1", got)
	}
}

// TestIngressDespreadsBeforeDecoding pins the ingress order: a D-NDP
// frame is decoded only if the node can de-spread it (§IV-A). A corrupted
// HELLO on a code the node holds reaches the decoder and is counted as a
// decode error; the same bytes on a code it does not hold are dropped
// first, neither decoded nor counted.
func TestIngressDespreadsBeforeDecoding(t *testing.T) {
	// l = 2 holders per code, so the pool has codes node 0 does not hold.
	p := smallParams(4, 5)
	p.L = 2
	reg := metrics.New()
	net, err := NewNetwork(NetworkConfig{Params: p, Seed: 76, Jammer: JamNone, Positions: clusterPositions(4), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	victim := net.Node(0)
	held := victim.codes[0]
	notHeld := codepool.CodeID(-1)
	for c := codepool.CodeID(0); int(c) < net.pool.S(); c++ {
		if !victim.issued(c) {
			notHeld = c
			break
		}
	}
	if notHeld < 0 {
		t.Fatal("victim holds every code in the pool")
	}
	frame, err := wire.Encode(wire.KindHello, wire.Hello{Initiator: 1}, net.limits)
	if err != nil {
		t.Fatal(err)
	}
	frame[0] ^= 0xFF // bad version byte: the decoder must reject it
	decodeErrors := func() uint64 {
		return reg.Snapshot().Counters["jrsnd_core_decode_errors_total"]
	}

	victim.handle(1, radio.Message{Kind: wire.KindHello, Code: held, Frame: frame})
	if got := decodeErrors(); got != 1 {
		t.Fatalf("corrupted frame on a held code: decode_errors = %v, want 1", got)
	}
	victim.handle(1, radio.Message{Kind: wire.KindHello, Code: notHeld, Frame: frame})
	if got := decodeErrors(); got != 1 {
		t.Fatalf("corrupted frame on code %d the node does not hold was decoded: decode_errors = %v, want 1", notHeld, got)
	}
	// A session frame whose corrupted kind byte decodes as a HELLO still
	// travels on a session code, so it must not open a D-NDP responder.
	hello, err := wire.Encode(wire.KindHello, wire.Hello{Initiator: 1}, net.limits)
	if err != nil {
		t.Fatal(err)
	}
	victim.handle(1, radio.Message{Kind: wire.KindSessionHello, Code: radio.SessionCode, Frame: hello})
	if len(victim.responders) != 0 {
		t.Fatal("a HELLO payload on a session code opened a D-NDP responder")
	}
}

// TestDecoderCopyDefeatsMutateAfterDeliver is the aliasing regression: a
// Byzantine transmitter that keeps a reference to the delivered frame and
// scribbles over it after the fact must not be able to corrupt victim
// state — every decoded field is a copy.
func TestDecoderCopyDefeatsMutateAfterDeliver(t *testing.T) {
	net, _ := byzantineNet(t, 76)

	var live []byte     // the exact slice handed down the receive path
	var pristine []byte // a copy for comparison
	net.medium.SetInterceptor(radio.InterceptorFunc(func(from, to int, msg radio.Message) radio.Message {
		if live == nil {
			if msg.Kind == wire.KindAuth1 {
				live = msg.Frame
				pristine = append([]byte(nil), msg.Frame...)
			}
		}
		return msg
	}))
	if err := net.RunDNDP(1); err != nil {
		t.Fatal(err)
	}
	net.medium.SetInterceptor(nil)
	requireAllDiscovered(t, net, 4)
	if live == nil {
		t.Fatal("no AUTH1 frame captured")
	}
	_, payload, err := wire.Decode(pristine, net.limits)
	if err != nil {
		t.Fatal(err)
	}
	auth := payload.(wire.Auth)
	victim := net.Node(int(auth.Peer))

	// The Byzantine sender mutates its buffer post-send.
	for i := range live {
		live[i] = 0xFF
	}

	// The victim's replay window recorded the nonce at verification time;
	// it must still hold the original bytes, not the scribbled ones.
	w := victim.seenNonces[auth.Sender]
	if w == nil || !w.contains(auth.Nonce) {
		t.Fatal("victim's nonce window lost the verified nonce after the sender mutated its buffer")
	}
	if w.contains(bytes.Repeat([]byte{0xFF}, len(auth.Nonce))) && !bytes.Equal(auth.Nonce, bytes.Repeat([]byte{0xFF}, len(auth.Nonce))) {
		t.Fatal("victim's nonce window aliases the mutated frame buffer")
	}
	if !victim.IsLogicalNeighbor(auth.Sender) {
		t.Fatal("victim lost a discovered neighbor after the sender mutated its buffer")
	}
}

// TestCrashedByzantineNodeIsSilent: an armed adversary whose node crashes
// transmits nothing afterwards — the medium refuses a crashed radio's
// frames whichever behavior scheduled them — and stops observing,
// recording and corrupting other nodes' frames. A Flood crashed at
// 0.5·t_key gets exactly its first wave (5 codes × 3 victims) on the air.
func TestCrashedByzantineNodeIsSilent(t *testing.T) {
	for _, kind := range adversary.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			net, _ := byzantineNet(t, 77)
			b, err := net.ArmAdversary(3, kind)
			if err != nil {
				t.Fatal(err)
			}
			// Without a jammer every frame the medium accepts reaches the
			// interceptor; wrap the adversary's to watch node 3's frames.
			crashed, late := false, 0
			var atCrash adversary.Counts
			net.medium.SetInterceptor(radio.InterceptorFunc(func(from, to int, msg radio.Message) radio.Message {
				if from == 3 && crashed {
					late++
				}
				return b.Intercept(from, to, msg)
			}))
			if _, err := net.Engine().Schedule(sim.Time(0.5*net.Params().TKey), func() {
				crashed = true
				atCrash = b.Counts()
				_ = net.CrashNode(3)
			}); err != nil {
				t.Fatal(err)
			}
			if err := net.RunDNDP(1); err != nil {
				t.Fatal(err)
			}
			if late > 0 {
				t.Fatalf("crashed node 3 put %d frames on the air", late)
			}
			got := b.Counts()
			if kind == adversary.Flood && got.Injected != 15 {
				t.Fatalf("flood injected %d frames, want one wave of 15", got.Injected)
			}
			got.Injected = atCrash.Injected
			if got != atCrash {
				t.Fatalf("crashed adversary kept acting on the air: counts %+v at the crash, %+v after", atCrash, got)
			}
		})
	}
}

// TestAdversaryRefusesForgedIDOverlap: once honest IDs reach the forged
// identity range, a forgery could impersonate an honest node, so neither
// ArmAdversary nor RunDoSAttack arms one. The node table is padded past
// adversary.ForgedIDBase rather than built, which would cost seconds of
// key issuance; both calls must refuse before touching the padding.
func TestAdversaryRefusesForgedIDOverlap(t *testing.T) {
	net, _ := byzantineNet(t, 78)
	if err := net.Compromise([]int{3}); err != nil {
		t.Fatal(err)
	}
	net.nodes = append(net.nodes, make([]*Node, adversary.ForgedIDBase+1-len(net.nodes))...)
	if _, err := net.ArmAdversary(3, adversary.Flood); err == nil {
		t.Fatal("ArmAdversary armed a flood whose forged IDs overlap honest ones")
	}
	if _, err := net.RunDoSAttack(3, 1); err == nil {
		t.Fatal("RunDoSAttack ran a flood whose forged IDs overlap honest ones")
	}
}
