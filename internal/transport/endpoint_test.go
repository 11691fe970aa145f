package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codepool"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Live-socket coverage on loopback: handshake and mutual registration,
// frame delivery, fan-out, the reject paths (unknown source, bad MAC,
// full table), reaping under an injected clock, and exposition-correct
// metrics.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// collector accumulates delivered frames.
type collector struct {
	mu     sync.Mutex
	frames []string
	from   []int
}

func (c *collector) add(from int, frame []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, string(frame))
	c.from = append(c.from, from)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// testCluster spins up n endpoints sharing one static directory.
func testCluster(t *testing.T, n int, mutate func(node int, cfg *Config)) []*Endpoint {
	t.Helper()
	dir := StaticDirectory{}
	for i := 0; i < n; i++ {
		dir[i] = testKey(i)
	}
	eps := make([]*Endpoint, n)
	for i := 0; i < n; i++ {
		cfg := Config{Node: i, Key: testKey(i), Directory: dir}
		if mutate != nil {
			mutate(i, &cfg)
		}
		e, err := Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		eps[i] = e
	}
	return eps
}

// testKey derives each node's handshake key from a distinct fake code
// assignment, the same derivation both sides of a real deployment use.
func testKey(node int) []byte {
	return NodeKey(node, []codepool.CodeID{codepool.CodeID(node*2 + 1), codepool.CodeID(node*2 + 2)})
}

func TestHandshakeRegistersBothSides(t *testing.T) {
	eps := testCluster(t, 2, nil)
	if err := eps[0].Dial(eps[1].Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mutual registration", func() bool {
		return eps[0].PeerCount() == 1 && eps[1].PeerCount() == 1
	})
	if got := eps[0].Peers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("node 0 peers = %v, want [1]", got)
	}
	if got := eps[1].Peers(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("node 1 peers = %v, want [0]", got)
	}
	// Dial is idempotent once registered.
	if err := eps[0].Dial(eps[1].Addr()); err != nil {
		t.Fatal(err)
	}
}

func TestFrameDeliveryBothDirections(t *testing.T) {
	var c0, c1 collector
	eps := testCluster(t, 2, func(node int, cfg *Config) {
		if node == 0 {
			cfg.OnFrame = c0.add
		} else {
			cfg.OnFrame = c1.add
		}
	})
	if err := eps[0].Dial(eps[1].Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mutual registration", func() bool {
		return eps[0].PeerCount() == 1 && eps[1].PeerCount() == 1
	})
	if err := eps[0].Send(1, []byte("zero to one")); err != nil {
		t.Fatal(err)
	}
	if err := eps[1].Send(0, []byte("one to zero")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame delivery", func() bool { return c0.count() == 1 && c1.count() == 1 })
	c1.mu.Lock()
	defer c1.mu.Unlock()
	if c1.frames[0] != "zero to one" || c1.from[0] != 0 {
		t.Fatalf("node 1 got %q from %d", c1.frames[0], c1.from[0])
	}
}

func TestBroadcastFanOut(t *testing.T) {
	const n = 5
	var rx [n]atomic.Int64
	eps := testCluster(t, n, func(node int, cfg *Config) {
		idx := node
		cfg.OnFrame = func(from int, frame []byte) { rx[idx].Add(1) }
	})
	for i := 1; i < n; i++ {
		if err := eps[i].Dial(eps[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	// The hub registers a dialer on its HELLO, but the dialer registers the
	// hub only once it has verified the ACK; a frame that arrives before
	// that is dropped as coming from an unregistered source.
	waitFor(t, "mutual hub registration", func() bool {
		for i := 1; i < n; i++ {
			if eps[i].PeerCount() != 1 {
				return false
			}
		}
		return eps[0].PeerCount() == n-1
	})
	sent, err := eps[0].Broadcast([]byte("to everyone"))
	if err != nil {
		t.Fatal(err)
	}
	if sent != n-1 {
		t.Fatalf("broadcast queued for %d peers, want %d", sent, n-1)
	}
	waitFor(t, "fan-out delivery", func() bool {
		for i := 1; i < n; i++ {
			if rx[i].Load() != 1 {
				return false
			}
		}
		return true
	})
	if rx[0].Load() != 0 {
		t.Fatal("the sender heard its own broadcast")
	}
}

// TestUnauthenticatedFramesDropped: datagrams from sockets that never
// completed a handshake must be counted and discarded, not delivered.
func TestUnauthenticatedFramesDropped(t *testing.T) {
	var c collector
	reg := metrics.New()
	eps := testCluster(t, 1, func(node int, cfg *Config) {
		cfg.OnFrame = c.add
		cfg.Metrics = reg
	})
	raw, err := net.Dial("udp", eps[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(encodeEnvelope(dgFrame, 99, []byte("sneaky"))); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("not even an envelope")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drops counted", func() bool {
		snap := reg.Snapshot()
		return snap.Counters[`jrsnd_transport_drops_total{reason="unknown_peer"}`] >= 1 &&
			snap.Counters[`jrsnd_transport_drops_total{reason="decode"}`] >= 1
	})
	if c.count() != 0 {
		t.Fatal("an unauthenticated frame reached the consumer")
	}
}

// TestBadMACRejected: a HELLO whose MAC was not produced by the key the
// directory records for the claimed node must not register a peer.
func TestBadMACRejected(t *testing.T) {
	reg := metrics.New()
	eps := testCluster(t, 1, func(node int, cfg *Config) { cfg.Metrics = reg })
	raw, err := net.Dial("udp", eps[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Claim to be node 0 but MAC with a key for a different code set.
	nonce := bytes.Repeat([]byte{9}, nonceSize)
	lie := helloBody{Nonce: nonce, MAC: helloMAC([]byte("wrong key entirely"), 0, nonce)}
	if _, err := raw.Write(encodeEnvelope(dgHello, 0, encodeHello(lie))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "MAC rejection counted", func() bool {
		return reg.Snapshot().Counters[`jrsnd_transport_drops_total{reason="unknown_peer"}`] >= 1
	})
	if eps[0].PeerCount() != 0 {
		t.Fatal("a forged HELLO registered a peer")
	}
}

// TestMaxPeersEnforced: registrations past the cap are refused and
// counted under the ratelimit reason.
func TestMaxPeersEnforced(t *testing.T) {
	reg := metrics.New()
	eps := testCluster(t, 4, func(node int, cfg *Config) {
		if node == 0 {
			cfg.MaxPeers = 2
			cfg.Metrics = reg
		}
	})
	for i := 1; i < 4; i++ {
		if err := eps[i].Dial(eps[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "table to fill and overflow to be counted", func() bool {
		return eps[0].PeerCount() == 2 &&
			reg.Snapshot().Counters[`jrsnd_transport_drops_total{reason="ratelimit"}`] >= 1
	})
}

// TestReapRemovesIdlePeers drives the liveness policy with an injected
// clock: advance past IdleAfter without traffic and the peer must go.
func TestReapRemovesIdlePeers(t *testing.T) {
	var clock atomic.Int64
	base := time.Now()
	now := func() time.Time { return base.Add(time.Duration(clock.Load())) }
	rec, err := trace.NewRecorder(256)
	if err != nil {
		t.Fatal(err)
	}
	eps := testCluster(t, 2, func(node int, cfg *Config) {
		cfg.now = now
		cfg.IdleAfter = 10 * time.Second
		cfg.PingEvery = time.Hour // keep the prober out of this test
		if node == 0 {
			cfg.Trace = rec
		}
	})
	if err := eps[0].Dial(eps[1].Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "registration", func() bool { return eps[0].PeerCount() == 1 })
	clock.Store(int64(11 * time.Second))
	eps[0].reap()
	if eps[0].PeerCount() != 0 {
		t.Fatal("idle peer survived the reaper")
	}
	if got := rec.Filter(trace.KindExpiry, 0, "peer removed"); len(got) != 1 || got[0].Peer != 1 {
		t.Fatalf("peer-removed expiry events %+v, want exactly one for peer 1", got)
	}
}

// TestByeRemovesPeer: a graceful leave removes the peer immediately.
func TestByeRemovesPeer(t *testing.T) {
	eps := testCluster(t, 2, nil)
	if err := eps[0].Dial(eps[1].Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mutual registration", func() bool {
		return eps[0].PeerCount() == 1 && eps[1].PeerCount() == 1
	})
	eps[0].Bye()
	waitFor(t, "peer removal on BYE", func() bool { return eps[1].PeerCount() == 0 })
}

// TestPingKeepsPeersAlive: quiet-but-live peers answer probes and are
// not reaped.
func TestPingKeepsPeersAlive(t *testing.T) {
	eps := testCluster(t, 2, func(node int, cfg *Config) {
		cfg.IdleAfter = 400 * time.Millisecond
		cfg.PingEvery = 50 * time.Millisecond
	})
	if err := eps[0].Dial(eps[1].Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mutual registration", func() bool {
		return eps[0].PeerCount() == 1 && eps[1].PeerCount() == 1
	})
	time.Sleep(time.Second) // several idle windows, no frames — only pings
	if eps[0].PeerCount() != 1 || eps[1].PeerCount() != 1 {
		t.Fatal("a live peer was reaped despite keepalives")
	}
}

// TestMetricsExposition: the transport instruments must survive a
// write → parse round trip with the documented names intact.
func TestMetricsExposition(t *testing.T) {
	var c collector
	reg := metrics.New()
	eps := testCluster(t, 2, func(node int, cfg *Config) {
		if node == 0 {
			cfg.Metrics = reg
		}
		if node == 1 {
			cfg.OnFrame = c.add
		}
	})
	if err := eps[0].Dial(eps[1].Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mutual registration", func() bool {
		return eps[0].PeerCount() == 1 && eps[1].PeerCount() == 1
	})
	if err := eps[0].Send(1, []byte("accounted")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return c.count() == 1 })

	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := metrics.ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("exposition does not re-parse: %v\n%s", err, buf.String())
	}
	if got := snap.Gauges["jrsnd_transport_peers"]; got != 1 {
		t.Fatalf("jrsnd_transport_peers = %v, want 1", got)
	}
	if snap.Counters["jrsnd_node_tx_datagrams_total"] == 0 {
		t.Fatal("tx datagrams not counted")
	}
	if snap.Counters["jrsnd_node_rx_datagrams_total"] == 0 {
		t.Fatal("rx datagrams not counted")
	}
	if snap.Counters["jrsnd_transport_handshakes_total"] == 0 {
		t.Fatal("handshakes not counted")
	}
	for _, reason := range []string{dropDecode, dropRatelimit, dropUnknown} {
		name := fmt.Sprintf(`jrsnd_transport_drops_total{reason=%q}`, reason)
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("drop counter %s missing from exposition", name)
		}
	}
}

// TestCloseIsCleanAndIdempotent: Close must stop every goroutine (the
// race detector would catch leaks touching freed state) and be callable
// twice.
func TestCloseIsCleanAndIdempotent(t *testing.T) {
	eps := testCluster(t, 2, nil)
	if err := eps[0].Dial(eps[1].Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "registration", func() bool { return eps[0].PeerCount() == 1 })
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Dial(eps[1].Addr()); err != ErrClosed {
		t.Fatalf("Dial after Close = %v, want ErrClosed", err)
	}
	if err := eps[0].Send(1, []byte("x")); err != ErrClosed {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}
