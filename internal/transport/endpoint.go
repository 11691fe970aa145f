package transport

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Service-level error taxonomy.
var (
	// ErrClosed: the endpoint has been shut down.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrPeersFull: registration refused because MaxPeers are connected.
	ErrPeersFull = errors.New("transport: peer table full")
	// ErrNoPeer: the destination node is not a registered peer.
	ErrNoPeer = errors.New("transport: no such peer")
)

// Fixed endpoint policy.
const (
	// queueLen is the per-peer outbound queue depth; a full queue drops
	// (and counts) instead of blocking.
	queueLen = 128
	// handshakeTimeout bounds a directory lookup and garbage-collects
	// pending dials.
	handshakeTimeout = 5 * time.Second
	// maxInflightVerify bounds concurrent handshake verifications (each
	// may hit the directory over the network); excess handshakes are
	// dropped and counted under the ratelimit reason.
	maxInflightVerify = 32
)

// Config configures an Endpoint. Node, Key, and Directory are required;
// everything else has a deployable default.
type Config struct {
	// Node is the local node ID (the authority-assigned deployment slot).
	Node int
	// Key is the local handshake key, NodeKey(Node, provisioned codes).
	Key []byte
	// Directory resolves peer IDs to handshake keys (the authority's
	// assignment registry, or a StaticDirectory in tests).
	Directory Directory
	// MaxPeers caps the peer table; registrations past it are refused and
	// counted. 0 means 64.
	MaxPeers int
	// IdleAfter reaps a peer silent this long. 0 means 30 s.
	IdleAfter time.Duration
	// PingEvery probes a quiet peer to keep live links from being reaped.
	// 0 means IdleAfter/3.
	PingEvery time.Duration
	// OnFrame, when set, receives every frame delivered by an
	// authenticated peer. The frame is the receiver's copy. Called from
	// the read loop: keep it fast, hand off anything slow.
	OnFrame func(from int, frame []byte)
	// Metrics receives the transport instruments; nil disables them.
	Metrics *metrics.Registry
	// Trace, when set, receives peer-lifecycle and drop events,
	// timestamped in seconds since the endpoint started.
	Trace trace.Sink

	// now is the wall clock, injectable for reap tests.
	now func() time.Time
}

// pendingDial is one outstanding initiator-side handshake.
type pendingDial struct {
	addr  *net.UDPAddr
	nonce []byte
	at    time.Time
}

// Endpoint owns one UDP socket and the peer manager over it: a bounded
// pooled read loop, authenticated peer registration capped at MaxPeers,
// per-peer send loops, broadcast fan-out, and idle-peer reaping.
type Endpoint struct {
	cfg Config

	maxPeers  int
	idleAfter time.Duration
	pingEvery time.Duration
	maxDgram  int

	conn  *net.UDPConn
	start time.Time
	now   func() time.Time
	sink  trace.Sink
	m     *transportMetrics
	bufs  sync.Pool

	ctx       context.Context
	cancel    context.CancelFunc
	done      chan struct{}
	wg        sync.WaitGroup
	verifySem chan struct{}

	txCount atomic.Uint64
	rxCount atomic.Uint64

	mu     sync.Mutex
	closed bool
	peers  map[int]*peer
	byAddr map[string]*peer
	dials  map[string]*pendingDial
}

// Listen binds a UDP socket on addr ("127.0.0.1:0" for an ephemeral
// loopback port) and starts the endpoint's read and reap loops.
func Listen(addr string, cfg Config) (*Endpoint, error) {
	if len(cfg.Key) == 0 {
		return nil, fmt.Errorf("transport: Key must be set (derive it with NodeKey)")
	}
	if cfg.Directory == nil {
		return nil, fmt.Errorf("transport: Directory must be set")
	}
	if cfg.Node < 0 {
		return nil, fmt.Errorf("transport: Node %d must be >= 0", cfg.Node)
	}
	e := &Endpoint{
		cfg:       cfg,
		maxPeers:  cfg.MaxPeers,
		idleAfter: cfg.IdleAfter,
		pingEvery: cfg.PingEvery,
		maxDgram:  maxDatagram(wire.DefaultLimits()),
		now:       cfg.now,
		sink:      trace.Multi(cfg.Trace),
		m:         newTransportMetrics(cfg.Metrics),
		done:      make(chan struct{}),
		peers:     map[int]*peer{},
		byAddr:    map[string]*peer{},
		dials:     map[string]*pendingDial{},
	}
	if e.maxPeers <= 0 {
		e.maxPeers = 64
	}
	if e.idleAfter <= 0 {
		e.idleAfter = 30 * time.Second
	}
	if e.pingEvery <= 0 {
		e.pingEvery = e.idleAfter / 3
	}
	e.verifySem = make(chan struct{}, maxInflightVerify)
	if e.now == nil {
		e.now = time.Now //jrsnd:allow wallclock the transport is the real path: peer liveness and handshake expiry follow the machine clock by design (injectable in tests)
	}
	e.bufs.New = func() any { return make([]byte, e.maxDgram) }

	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	if e.conn, err = net.ListenUDP("udp", ua); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	e.start = e.now()
	e.ctx, e.cancel = context.WithCancel(context.Background())
	e.wg.Add(2)
	go e.readLoop()
	go e.reapLoop()
	return e, nil
}

// Addr returns the bound UDP address.
func (e *Endpoint) Addr() string { return e.conn.LocalAddr().String() }

// TxDatagrams and RxDatagrams return the datagram counters (also exposed
// as jrsnd_node_tx/rx_datagrams_total when a registry is configured).
func (e *Endpoint) TxDatagrams() uint64 { return e.txCount.Load() }

// RxDatagrams returns the received-datagram counter.
func (e *Endpoint) RxDatagrams() uint64 { return e.rxCount.Load() }

// Peers returns the registered peer IDs, sorted.
func (e *Endpoint) Peers() []int {
	e.mu.Lock()
	out := make([]int, 0, len(e.peers))
	for id := range e.peers {
		out = append(out, id)
	}
	e.mu.Unlock()
	sort.Ints(out)
	return out
}

// PeerCount returns the size of the peer table.
func (e *Endpoint) PeerCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.peers)
}

// maxFrame is the largest wire frame one datagram can carry: the wire
// limit, additionally capped by the UDP payload ceiling (the default
// wire MaxFrame is larger than a datagram; an engine that emits such a
// frame gets an explicit ErrOverflow, not silent fragmentation).
func (e *Endpoint) maxFrame() int { return e.maxDgram - headerLen }

// since timestamps trace events in seconds since the endpoint started.
func (e *Endpoint) since() float64 { return e.now().Sub(e.start).Seconds() }

// emit forwards a trace event to the configured sink, if any.
func (e *Endpoint) emit(kind trace.Kind, peerID int, detail string) {
	if e.sink == nil {
		return
	}
	e.sink.Emit(trace.Event{At: e.since(), Kind: kind, Node: e.cfg.Node, Peer: peerID, Detail: detail})
}

// drop counts and traces one rejected datagram.
func (e *Endpoint) drop(reason string, peerID int, detail string) {
	e.m.drops[reason].Inc()
	if e.sink != nil {
		e.emit(trace.KindDrop, peerID, reason+": "+detail)
	}
}

// Dial initiates a handshake toward addr. It is idempotent: an address
// that already belongs to a registered peer is left alone, and repeated
// dials of a pending address re-send the HELLO with the same nonce (UDP
// loses datagrams; the daemon re-dials from its beacon loop until the
// peer registers).
func (e *Endpoint) Dial(addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	nonce := make([]byte, nonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("transport: nonce: %w", err)
	}
	key := ua.String()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if p := e.byAddr[key]; p != nil && !p.removed {
		e.mu.Unlock()
		return nil // already an authenticated peer
	}
	pd := e.dials[key]
	if pd == nil {
		pd = &pendingDial{addr: ua, nonce: nonce}
		e.dials[key] = pd
	}
	pd.at = e.now()
	hello := helloBody{Nonce: pd.nonce, MAC: helloMAC(e.cfg.Key, e.cfg.Node, pd.nonce)}
	e.mu.Unlock()
	e.writeTo(ua, encodeEnvelope(dgHello, e.cfg.Node, encodeHello(hello)))
	return nil
}

// Send transmits one wire frame to a registered peer. A full outbound
// queue drops the datagram (counted under the ratelimit reason) rather
// than blocking — datagram semantics all the way down.
func (e *Endpoint) Send(to int, frame []byte) error {
	if len(frame) > e.maxFrame() {
		return fmt.Errorf("%w: frame of %d bytes (cap %d)", ErrOverflow, len(frame), e.maxFrame())
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	p := e.peers[to]
	e.mu.Unlock()
	if p == nil {
		return fmt.Errorf("%w: node %d", ErrNoPeer, to)
	}
	if !p.enqueue(encodeEnvelope(dgFrame, e.cfg.Node, frame)) {
		e.drop(dropRatelimit, to, "outbound queue full")
	}
	return nil
}

// Broadcast fans one wire frame out to every registered peer and returns
// how many peers it was queued for.
func (e *Endpoint) Broadcast(frame []byte) (int, error) {
	if len(frame) > e.maxFrame() {
		return 0, fmt.Errorf("%w: frame of %d bytes (cap %d)", ErrOverflow, len(frame), e.maxFrame())
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	targets := make([]*peer, 0, len(e.peers))
	for _, p := range e.peers {
		targets = append(targets, p)
	}
	e.mu.Unlock()
	buf := encodeEnvelope(dgFrame, e.cfg.Node, frame) // one encode, shared read-only by every send loop
	sent := 0
	for _, p := range targets {
		if p.enqueue(buf) {
			sent++
		} else {
			e.drop(dropRatelimit, p.id, "outbound queue full")
		}
	}
	return sent, nil
}

// Close tears the endpoint down: the socket closes, every peer loop and
// the read/reap loops exit, and in-flight handshake verifications abort.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, p := range e.peers {
		e.removeLocked(p)
	}
	e.mu.Unlock()
	close(e.done)
	e.cancel()
	err := e.conn.Close()
	e.wg.Wait()
	e.m.peers.Set(0)
	return err
}

// Bye broadcasts a graceful-leave datagram so peers remove us now
// instead of waiting out the idle reaper. Call before Close.
func (e *Endpoint) Bye() {
	e.mu.Lock()
	targets := make([]*peer, 0, len(e.peers))
	for _, p := range e.peers {
		targets = append(targets, p)
	}
	e.mu.Unlock()
	buf := encodeEnvelope(dgBye, e.cfg.Node, nil)
	for _, p := range targets {
		e.writeTo(p.addr, buf) // direct: the queues are about to die
	}
}

// writeTo transmits one datagram, counting successful writes.
func (e *Endpoint) writeTo(addr *net.UDPAddr, buf []byte) {
	if _, err := e.conn.WriteToUDP(buf, addr); err == nil {
		e.txCount.Add(1)
		e.m.txDgrams.Inc()
	}
}

// sendLoop drains one peer's outbound queue until the peer is removed.
func (e *Endpoint) sendLoop(p *peer) {
	defer e.wg.Done()
	for {
		select {
		case buf := <-p.out:
			e.writeTo(p.addr, buf)
		case <-p.done:
			return
		}
	}
}

// readLoop receives datagrams into pooled buffers. Buffers are capped at
// maxDgram: an oversized datagram is truncated by the kernel and then
// rejected by the frame-length check, so hostile sizes never drive
// allocation.
func (e *Endpoint) readLoop() {
	defer e.wg.Done()
	for {
		buf := e.bufs.Get().([]byte)
		n, src, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			e.bufs.Put(buf) //nolint:staticcheck // fixed-size buffer, pooling by design
			select {
			case <-e.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		e.rxCount.Add(1)
		e.m.rxDgrams.Inc()
		e.processDatagram(src, buf[:n])
		e.bufs.Put(buf) //nolint:staticcheck // fixed-size buffer, pooling by design
	}
}

// processDatagram dispatches one received datagram. data aliases a
// pooled buffer: anything that outlives this call is copied first (the
// handshake decoders copy their fields; the frame path copies the body).
func (e *Endpoint) processDatagram(src *net.UDPAddr, data []byte) {
	env, err := decodeEnvelope(data)
	if err != nil {
		e.drop(dropDecode, -1, err.Error())
		return
	}
	switch env.kind {
	case dgHello:
		e.onHello(src, env)
	case dgAck:
		e.onAck(src, env)
	case dgFrame:
		e.onWireFrame(src, env)
	case dgPing, dgPong, dgBye:
		e.onControl(src, env)
	}
}

// onHello handles a handshake initiation: verify the claimed code-slot
// identity against the directory (bounded, off the read loop), register
// the peer, and answer with an ACK proving our own identity.
func (e *Endpoint) onHello(src *net.UDPAddr, env envelope) {
	h, err := decodeHello(env.body)
	if err != nil {
		e.drop(dropDecode, env.sender, err.Error())
		return
	}
	e.verify(env.sender, func(key []byte) {
		if !verifyMAC(helloMAC(key, env.sender, h.Nonce), h.MAC) {
			e.drop(dropUnknown, env.sender, "HELLO MAC rejected")
			return
		}
		if _, err := e.register(env.sender, src); err != nil {
			return
		}
		myNonce := make([]byte, nonceSize)
		if _, err := rand.Read(myNonce); err != nil {
			return
		}
		ack := ackBody{
			Echo:  h.Nonce,
			Nonce: myNonce,
			MAC:   ackMAC(e.cfg.Key, e.cfg.Node, env.sender, h.Nonce, myNonce),
		}
		e.writeTo(src, encodeEnvelope(dgAck, e.cfg.Node, encodeAck(ack)))
	})
}

// onAck completes an initiator-side handshake: the ACK must answer a
// pending dial with the dial's fresh nonce, and its MAC must verify
// against the responder's directory record.
func (e *Endpoint) onAck(src *net.UDPAddr, env envelope) {
	a, err := decodeAck(env.body)
	if err != nil {
		e.drop(dropDecode, env.sender, err.Error())
		return
	}
	key := src.String()
	e.mu.Lock()
	pd := e.dials[key]
	e.mu.Unlock()
	if pd == nil || !bytes.Equal(pd.nonce, a.Echo) {
		e.drop(dropUnknown, env.sender, "unsolicited or stale ACK")
		return
	}
	e.verify(env.sender, func(dirKey []byte) {
		if !verifyMAC(ackMAC(dirKey, env.sender, e.cfg.Node, pd.nonce, a.Nonce), a.MAC) {
			e.drop(dropUnknown, env.sender, "ACK MAC rejected")
			return
		}
		e.mu.Lock()
		delete(e.dials, key)
		e.mu.Unlock()
		_, _ = e.register(env.sender, src)
	})
}

// onWireFrame delivers a frame from a registered peer; anything else is
// counted, not parsed.
func (e *Endpoint) onWireFrame(src *net.UDPAddr, env envelope) {
	e.mu.Lock()
	p := e.byAddr[src.String()]
	e.mu.Unlock()
	if p == nil || p.id != env.sender {
		e.drop(dropUnknown, env.sender, "frame from unregistered source "+src.String())
		return
	}
	if len(env.body) > e.maxFrame() {
		e.drop(dropDecode, env.sender, fmt.Sprintf("frame of %d bytes exceeds cap %d", len(env.body), e.maxFrame()))
		return
	}
	p.touch(e.now().UnixNano())
	if e.cfg.OnFrame != nil {
		frame := make([]byte, len(env.body))
		copy(frame, env.body)
		e.cfg.OnFrame(p.id, frame)
	}
}

// onControl handles keepalive and leave datagrams from registered peers.
func (e *Endpoint) onControl(src *net.UDPAddr, env envelope) {
	e.mu.Lock()
	p := e.byAddr[src.String()]
	e.mu.Unlock()
	if p == nil || p.id != env.sender {
		if env.kind != dgBye { // an unknown BYE is vacuously honored
			e.drop(dropUnknown, env.sender, dgKindName(env.kind)+" from unregistered source")
		}
		return
	}
	p.touch(e.now().UnixNano())
	switch env.kind {
	case dgPing:
		p.enqueue(encodeEnvelope(dgPong, e.cfg.Node, nil))
	case dgBye:
		e.removePeer(p, "peer said goodbye")
	}
}

// verify runs fn with the directory key of node, on a bounded worker:
// each verification may cost a network round trip to the authority, so
// concurrency is capped and excess handshakes are dropped (ratelimit) —
// a handshake flood cannot pile up goroutines.
func (e *Endpoint) verify(node int, fn func(key []byte)) {
	select {
	case e.verifySem <- struct{}{}:
	default:
		e.drop(dropRatelimit, node, "handshake verification backlog full")
		return
	}
	e.wg.Add(1)
	go func() {
		defer func() { <-e.verifySem; e.wg.Done() }()
		ctx, cancel := context.WithTimeout(e.ctx, handshakeTimeout)
		defer cancel()
		key, err := e.cfg.Directory.NodeKey(ctx, node)
		if err != nil {
			e.drop(dropUnknown, node, "directory lookup: "+err.Error())
			return
		}
		fn(key)
	}()
}

// register adds (or refreshes) an authenticated peer. A re-handshake
// from the same address refreshes liveness; one from a new address —
// the peer restarted on a different port — replaces the stale entry.
func (e *Endpoint) register(id int, addr *net.UDPAddr) (*peer, error) {
	nowNanos := e.now().UnixNano()
	key := addr.String()
	var replaced *peer
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if existing := e.peers[id]; existing != nil {
		if existing.key == key {
			existing.touch(nowNanos)
			e.mu.Unlock()
			return existing, nil
		}
		e.removeLocked(existing)
		replaced = existing
	}
	if len(e.peers) >= e.maxPeers {
		e.mu.Unlock()
		e.drop(dropRatelimit, id, fmt.Sprintf("peer table full (%d)", e.maxPeers))
		return nil, ErrPeersFull
	}
	p := &peer{
		id:   id,
		addr: addr,
		key:  key,
		out:  make(chan []byte, queueLen),
		done: make(chan struct{}),
	}
	p.touch(nowNanos)
	e.peers[id] = p
	e.byAddr[key] = p
	count := len(e.peers)
	e.wg.Add(1)
	e.mu.Unlock()

	go e.sendLoop(p)
	e.m.peers.Set(float64(count))
	e.m.handshakes.Inc()
	if replaced != nil {
		e.emit(trace.KindExpiry, id, "peer re-registered from "+key+" (stale entry replaced)")
	}
	e.emit(trace.KindDiscovery, id, "peer authenticated at "+key)
	return p, nil
}

// removeLocked detaches a peer from the tables and stops its send loop.
// Caller holds mu; idempotent via p.removed.
func (e *Endpoint) removeLocked(p *peer) bool {
	if p.removed {
		return false
	}
	p.removed = true
	if e.peers[p.id] == p {
		delete(e.peers, p.id)
	}
	if e.byAddr[p.key] == p {
		delete(e.byAddr, p.key)
	}
	close(p.done)
	return true
}

// removePeer is the clean removal path: detach, update the gauge, and
// trace.
func (e *Endpoint) removePeer(p *peer, reason string) {
	e.mu.Lock()
	removed := e.removeLocked(p)
	count := len(e.peers)
	e.mu.Unlock()
	if !removed {
		return
	}
	e.m.peers.Set(float64(count))
	e.emit(trace.KindExpiry, p.id, "peer removed: "+reason)
}

// reapLoop periodically pings quiet peers, removes dead ones, and
// garbage-collects expired pending dials.
func (e *Endpoint) reapLoop() {
	defer e.wg.Done()
	period := e.pingEvery / 2
	if period <= 0 {
		period = e.pingEvery
	}
	ticker := time.NewTicker(period) //jrsnd:allow wallclock peer liveness on the socket path is wall-clock by nature; the reap decision itself is tested with an injected clock
	defer ticker.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-ticker.C:
			e.reap()
		}
	}
}

// reap applies the liveness policy once (called from reapLoop; tests
// call it directly with an injected clock).
func (e *Endpoint) reap() {
	now := e.now()
	nowNanos := now.UnixNano()
	var dead, quiet []*peer
	e.mu.Lock()
	for _, p := range e.peers {
		switch idle := p.idleNanos(nowNanos); {
		case idle > int64(e.idleAfter):
			dead = append(dead, p)
		case idle > int64(e.pingEvery):
			quiet = append(quiet, p)
		}
	}
	for key, pd := range e.dials {
		if now.Sub(pd.at) > handshakeTimeout {
			delete(e.dials, key)
		}
	}
	e.mu.Unlock()
	for _, p := range dead {
		e.removePeer(p, fmt.Sprintf("idle past %v", e.idleAfter))
	}
	if len(quiet) > 0 {
		ping := encodeEnvelope(dgPing, e.cfg.Node, nil)
		for _, p := range quiet {
			p.enqueue(ping)
		}
	}
}
