// Package core implements the JR-SND protocols of §V: D-NDP (direct
// neighbor discovery over pre-distributed spread codes, §V-B) and M-NDP
// (multi-hop neighbor discovery over established session codes, §V-C),
// together with the DoS-resilience defence of §V-D, as an event-driven
// protocol engine over the message-level radio medium. The protocol
// payloads are internal/wire's canonical message types: every delivery
// is encoded to a bounded binary frame and decoded at the receiver, so
// the structs handlers see are exactly what survives a round trip
// through hostile bytes.
package core

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/codepool"
	"repro/internal/field"
	"repro/internal/ibc"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// JammerKind selects the adversary model of §IV-B, shared by the
// event-driven engine (NetworkConfig.Jammer) and the statistical campaign
// (experiment.PointConfig.Jammer). The zero value is reactive jamming,
// the worst case the paper's figures report.
type JammerKind int

// Jammer models.
const (
	JamReactive JammerKind = iota
	JamNone
	JamRandom
	// JamIntelligent is the §V-B "intelligent attack": let HELLOs pass so
	// victims commit to a code, then reactively jam the follow-ups.
	JamIntelligent
	// JamPulse is a duty-cycled (partial-time) reactive jammer: it only
	// destroys a known-code transmission while its pulse is on (half of
	// the time).
	JamPulse
	// JamSweep rotates a window of jamming emitters across the compromised
	// codes once per epoch: a window of q·m/4 codes (at least 1), rotated
	// every 0.1 virtual seconds. It needs a simulation clock.
	JamSweep
)

func (k JammerKind) String() string {
	switch k {
	case JamNone:
		return "none"
	case JamRandom:
		return "random"
	case JamReactive:
		return "reactive"
	case JamIntelligent:
		return "intelligent"
	case JamPulse:
		return "pulse"
	case JamSweep:
		return "sweep"
	default:
		return "unknown"
	}
}

// ParseJammerKind maps a CLI flag value to a JammerKind.
func ParseJammerKind(s string) (JammerKind, error) {
	for k := JamReactive; k <= JamSweep; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return JamReactive, fmt.Errorf("core: unknown jammer %q (want reactive, none, random, intelligent, pulse, or sweep)", s)
}

// NewJammer builds the jammer of the given kind over the compromised-code
// set, the one constructor both engines use. rng is the jammer's own
// stream (random and pulse draw from it); clock is the simulation clock,
// which only the sweep jammer reads, so a clockless caller such as the
// campaign can build every other kind with a nil clock.
func NewJammer(kind JammerKind, p analysis.Params, compromised *codepool.CodeSet, rng *rand.Rand, clock func() sim.Time) (radio.Jammer, error) {
	var (
		jammer radio.Jammer
		err    error
	)
	switch kind {
	case JamNone:
		jammer = radio.NoJammer{}
	case JamReactive:
		jammer = radio.NewReactiveJammer(compromised)
	case JamRandom:
		jammer, err = radio.NewRandomJammer(p.Z, p.Mu, compromised, rng)
	case JamIntelligent:
		jammer = radio.NewIntelligentJammer(compromised, []int{wire.KindHello})
	case JamPulse:
		jammer, err = radio.NewPulseJammer(radio.NewReactiveJammer(compromised), 0.5, rng)
	case JamSweep:
		window := max(1, p.Q*p.M/4) // ~1/4 of the worst-case compromised set
		jammer, err = radio.NewSweepJammer(compromised, window, sim.Time(0.1), clock)
	default:
		return nil, fmt.Errorf("core: unknown jammer kind %d", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s jammer: %w", kind, err)
	}
	return jammer, nil
}

// NetworkConfig configures a simulated JR-SND deployment.
type NetworkConfig struct {
	// Params holds the Table I parameter set.
	Params analysis.Params
	// Seed makes the whole run reproducible.
	Seed int64
	// Jammer selects the adversary model; the zero value is reactive
	// jamming, so a benign run sets JamNone.
	Jammer JammerKind
	// Positions optionally fixes node placement; default is uniform.
	Positions []field.Point
	// GPSFilter enables the §V-C false-positive filter: nodes answer
	// M-NDP requests only when the origin's claimed position is within
	// transmission range.
	GPSFilter bool
	// DisableRedundancy turns off the x-sub-session redundancy design of
	// §V-B (responders pick a single shared code instead of all of them);
	// for the ablation experiment.
	DisableRedundancy bool
	// ModelProcessingDelays samples the §V-B buffering/processing delays
	// (t_r, t_d uniform in [0, t_p]) so discovery latency follows
	// Theorem 2. When false, handlers respond immediately (faster tests).
	ModelProcessingDelays bool
	// Trace, when set, receives structured protocol events
	// (transmissions, jam verdicts, discoveries, revocations, expiries).
	// Any trace.Sink works: the bounded in-memory trace.Recorder, a
	// streaming trace.JSONLWriter, or several at once via trace.Multi.
	Trace trace.Sink
	// Metrics, when set, receives the engine's telemetry: per-kind tx and
	// jam counters, the discovery-latency histogram, M-NDP flood fan-out,
	// revocation/expiry counters, and the sim-engine event counters. A nil
	// registry disables instrumentation at near-zero hot-path cost.
	Metrics *metrics.Registry
	// Retry enables the handshake retry/backoff state machine (per-session
	// timeouts, half-open GC, randomized-backoff D-NDP retries, M-NDP
	// fallback). Nil keeps the paper's happy-path behavior.
	Retry *RetryConfig
	// Faults injects channel faults (loss, duplication, bounded reorder)
	// into the medium; see internal/faults for seed-driven plans.
	Faults radio.FaultInjector
	// Defense enables the Byzantine-input defenses: the per-peer replay
	// window over verified AUTH nonces and the per-transmitter half-open
	// rate limiter. Nil keeps the seed engine's behavior; see
	// DefaultDefenseConfig.
	Defense *DefenseConfig
	// ClockSkewSpread gives each node a local-clock skew multiplier drawn
	// uniformly from [1-spread, 1+spread], applied to its processing
	// delays (visible when ModelProcessingDelays is on). Must be in [0, 1).
	ClockSkewSpread float64
}

// PairDiscovery records a completed mutual discovery.
type PairDiscovery struct {
	A, B    ibc.NodeID
	Via     DiscoveryMethod
	At      sim.Time
	Latency sim.Time
}

// Network is a full simulated deployment: nodes, medium, jammer, and the
// authority with its code pool.
type Network struct {
	params    analysis.Params
	cfg       NetworkConfig
	engine    *sim.Engine
	streams   *sim.Streams
	pool      *codepool.Pool
	authority *ibc.Authority
	verifier  *ibc.Verifier // every node's signature checks, memoised per deployment
	medium    *radio.Medium // the shared radio every frame goes through
	deploy    field.Field
	positions []field.Point
	graph     *field.Graph
	nodes     []*Node
	jammer    radio.Jammer
	sink      trace.Sink    // normalized from cfg.Trace; nil when tracing is off
	tracer    *trace.Tracer // span emission over sink; nil when tracing is off
	m         *coreMetrics  // nil handles when cfg.Metrics is nil
	limits    wire.Limits   // frame codec caps, derived from Params

	compromisedCodes *codepool.CodeSet

	pairs    []PairDiscovery
	initTime map[ibc.NodeID]sim.Time
}

// NewNetwork builds the deployment. Nodes are created, issued keys and
// codes, and attached to the medium; no protocol activity is scheduled yet.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	p := cfg.Params
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if p.N > 1<<16 {
		return nil, fmt.Errorf("core: n=%d exceeds the 16-bit ID space", p.N)
	}
	if err := cfg.Retry.validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Defense != nil && cfg.Defense.replayWindow < 1 {
		return nil, fmt.Errorf("core: Defense must come from DefaultDefenseConfig")
	}
	if cfg.ClockSkewSpread < 0 || cfg.ClockSkewSpread >= 1 {
		return nil, fmt.Errorf("core: ClockSkewSpread %v outside [0, 1)", cfg.ClockSkewSpread)
	}
	streams := sim.NewStreams(cfg.Seed)
	engine := sim.NewEngine()

	deploy, err := field.New(p.FieldWidth, p.FieldHeight)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	positions := cfg.Positions
	if positions == nil {
		positions = deploy.PlaceUniform(streams.Get("placement"), p.N)
	}
	if len(positions) != p.N {
		return nil, fmt.Errorf("core: %d positions for %d nodes", len(positions), p.N)
	}
	graph, err := field.PhysicalGraph(deploy, positions, p.Range)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	pool, err := codepool.New(codepool.Config{N: p.N, M: p.M, L: p.L, Rand: streams.Get("codepool")})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	authority, err := ibc.NewAuthority(ibc.AuthorityConfig{Rand: streams.Get("authority")})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	compromised := codepool.NewCodeSet(pool.S())
	jammer, err := NewJammer(cfg.Jammer, p, compromised, streams.Get("jammer"), engine.Now)
	if err != nil {
		return nil, err
	}

	n := &Network{
		params:           p,
		cfg:              cfg,
		engine:           engine,
		streams:          streams,
		pool:             pool,
		authority:        authority,
		verifier:         ibc.NewVerifier(authority.RootPublicKey()),
		deploy:           deploy,
		positions:        positions,
		graph:            graph,
		jammer:           jammer,
		compromisedCodes: compromised,
		initTime:         map[ibc.NodeID]sim.Time{},
		limits:           wire.LimitsFromParams(p),
	}
	n.sink = trace.Multi(cfg.Trace) // normalizes typed-nil recorders to nil
	n.tracer = trace.NewTracer(n.sink)
	engine.Trace(n.tracer)
	n.m = newCoreMetrics(cfg.Metrics)
	if cfg.Metrics != nil {
		engine.Instrument(sim.NewEngineMetrics(cfg.Metrics))
	}
	var observer func(from, to int, msg radio.Message, jammed bool)
	if n.sink != nil || cfg.Metrics != nil {
		observer = func(from, to int, msg radio.Message, jammed bool) {
			n.m.tx[msg.Kind].Inc()
			if jammed {
				n.m.jammed[msg.Kind].Inc()
			}
			if n.sink == nil {
				return
			}
			kind := trace.KindTx
			if jammed {
				kind = trace.KindJammed
			}
			n.emit(kind, from, to, fmt.Sprintf("%s code=%d bits=%d", wire.KindName(msg.Kind), msg.Code, msg.PayloadBits))
		}
	}
	n.medium, err = radio.NewMedium(radio.MediumConfig{
		Engine:   engine,
		Jammer:   jammer,
		Adjacent: func(node int) []int { return n.graph.Adj[node] },
		ChipLen:  p.ChipLen,
		ChipRate: p.ChipRate,
		Mu:       p.Mu,
		Observer: observer,
		Faults:   cfg.Faults,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	n.nodes = make([]*Node, p.N)
	keyRng := streams.Get("node-keys")
	for i := 0; i < p.N; i++ {
		node, err := n.newNode(i, keyRng)
		if err != nil {
			return nil, err
		}
		n.nodes[i] = node
		n.medium.Attach(i, node.handle)
	}
	return n, nil
}

// newNode issues keys and codes for node idx and builds its protocol
// state. The caller appends it to n.nodes and attaches it to the medium.
func (n *Network) newNode(idx int, keyRng *rand.Rand) (*Node, error) {
	priv, err := n.authority.Issue(ibc.NodeID(idx), keyRng)
	if err != nil {
		return nil, fmt.Errorf("core: issue node %d: %w", idx, err)
	}
	revoker, err := codepool.NewRevoker(n.params.Gamma)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	codes := n.pool.Codes(idx)
	codeSet := make(map[codepool.CodeID]bool, len(codes))
	for _, c := range codes {
		codeSet[c] = true
	}
	skew := 1.0
	if spread := n.cfg.ClockSkewSpread; spread > 0 {
		skew = 1 + spread*(2*n.streams.Get("clock-skew").Float64()-1)
	}
	return &Node{
		net:          n,
		index:        idx,
		id:           ibc.NodeID(idx),
		codes:        codes,
		codeSet:      codeSet,
		priv:         priv,
		revoker:      revoker,
		rng:          n.streams.Get("node-" + strconv.Itoa(idx)),
		neighbors:    map[ibc.NodeID]*Neighbor{},
		responders:   map[ibc.NodeID]*dndpResponderState{},
		seenRequests: map[string]bool{},
		mndpOut:      map[ibc.NodeID]*mndpPending{},
		mndpIn:       map[ibc.NodeID]*mndpPending{},
		skew:         skew,
		seenNonces:   map[ibc.NodeID]*nonceWindow{},
		buckets:      map[int]*tokenBucket{},
	}, nil
}

// emit stamps a protocol event with the current virtual time and forwards
// it to the configured trace sink, if any. Node and peer are -1 when not
// applicable.
func (n *Network) emit(kind trace.Kind, node, peer int, detail string) {
	if n.sink != nil {
		n.sink.Emit(trace.Event{At: float64(n.engine.Now()), Kind: kind, Node: node, Peer: peer, Detail: detail})
	}
}

// Engine exposes the simulation engine (tests and examples drive it).
func (n *Network) Engine() *sim.Engine { return n.engine }

// Params returns the parameter set.
func (n *Network) Params() analysis.Params { return n.params }

// Node returns node i.
func (n *Network) Node(i int) *Node { return n.nodes[i] }

// Pool exposes the authority's code pre-distribution (tests and the
// experiment harness inspect shared-code structure through it).
func (n *Network) Pool() *codepool.Pool { return n.pool }

// NumNodes returns the deployment size.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Positions returns the node placement (a copy).
func (n *Network) Positions() []field.Point {
	out := make([]field.Point, len(n.positions))
	copy(out, n.positions)
	return out
}

// PhysicalGraph returns the physical-neighbor graph.
func (n *Network) PhysicalGraph() *field.Graph { return n.graph }

// RevokeGlobally distributes an authority revocation for the given code:
// every honest node locally drops it, so subsequent messages spread with
// it are ignored network-wide (§I: compromised codes "can fortunately be
// revoked after being identified"). It returns how many nodes held the
// code.
func (n *Network) RevokeGlobally(code codepool.CodeID) (int, error) {
	if code < 0 || int(code) >= n.pool.S() {
		return 0, fmt.Errorf("core: code %d out of pool range [0, %d)", code, n.pool.S())
	}
	held := 0
	for _, nd := range n.nodes {
		if !nd.codeSet[code] {
			continue
		}
		held++
		if nd.compromised {
			continue
		}
		// Drive the local revoker past its threshold so holdsCode rejects
		// the code from now on.
		for !nd.revoker.Revoked(code) {
			nd.revoker.ReportInvalid(code)
		}
	}
	if held > 0 {
		n.m.revokedGlobal.Inc()
		n.emit(trace.KindRevocation, -1, -1, fmt.Sprintf("authority revoked code %d network-wide (%d holders)", code, held))
	}
	return held, nil
}

// JoinNode admits a new node at the given position (§V-A late join): the
// authority hands it a pre-provisioned virtual-node code set (or runs a
// batch expansion) and issues its ID-based private key; the node is placed
// on the field and attached to the medium, ready to run discovery. It
// returns the new node's index.
func (n *Network) JoinNode(pos field.Point) (int, error) {
	if len(n.nodes) >= 1<<16 {
		return 0, fmt.Errorf("core: ID space exhausted")
	}
	if !n.deploy.Contains(pos) {
		return 0, fmt.Errorf("core: join position %v outside the field", pos)
	}
	idx, err := n.pool.Join(n.streams.Get("join"))
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	if idx != len(n.nodes) {
		return 0, fmt.Errorf("core: pool join index %d does not match node count %d", idx, len(n.nodes))
	}
	node, err := n.newNode(idx, n.streams.Get("node-keys"))
	if err != nil {
		return 0, err
	}
	n.nodes = append(n.nodes, node)
	n.positions = append(n.positions, pos)
	n.medium.Attach(idx, node.handle)
	graph, err := field.PhysicalGraph(n.deploy, n.positions, n.params.Range)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	n.graph = graph
	return idx, nil
}

// RunDiscoveryFor schedules one D-NDP initiation by the given node and
// drains the engine — the natural first act of a freshly joined node.
func (n *Network) RunDiscoveryFor(node int) error {
	if err := n.ScheduleDiscovery(node, 0); err != nil {
		return err
	}
	return n.engine.Run()
}

// ScheduleDiscovery queues one D-NDP initiation by the given node after
// delay without draining the engine, so churn plans can interleave
// restarts and re-discovery with other scheduled faults.
func (n *Network) ScheduleDiscovery(node int, delay sim.Time) error {
	if node < 0 || node >= len(n.nodes) {
		return fmt.Errorf("core: node index %d out of range", node)
	}
	nd := n.nodes[node]
	if nd.compromised {
		return fmt.Errorf("core: node %d is compromised", node)
	}
	_, err := n.engine.Schedule(delay, nd.startDNDP) // a no-op if nd is down by then
	return err
}

// CrashNode fails node i (churn fault model): it loses all volatile
// protocol state — neighbor table, handshake state, M-NDP pendings — and
// neither sends nor receives until RestartNode: its radio is switched off
// in the medium, so nothing it (or an adversary armed on it) schedules
// reaches the air. Peers keep their stale view of it until the monitor
// timeout (ExpireStaleNeighbors) reaps it.
func (n *Network) CrashNode(i int) error {
	if i < 0 || i >= len(n.nodes) {
		return fmt.Errorf("core: node index %d out of range", i)
	}
	nd := n.nodes[i]
	if nd.down {
		return nil
	}
	nd.down = true
	n.medium.SetRadio(i, false)
	n.endNodeSpans(nd, "crashed")
	nd.neighbors = map[ibc.NodeID]*Neighbor{}
	nd.responders = map[ibc.NodeID]*dndpResponderState{}
	nd.initiator = nil
	nd.seenRequests = map[string]bool{}
	nd.mndpOut = map[ibc.NodeID]*mndpPending{}
	nd.mndpIn = map[ibc.NodeID]*mndpPending{}
	nd.dndpAttempts = 0
	nd.mndpFallback = false
	nd.resetDefenses()
	delete(n.initTime, nd.id)
	n.m.crashes.Inc()
	n.emit(trace.KindCrash, i, -1, "node crashed: volatile state lost")
	return nil
}

// RestartNode brings a crashed node back up with empty protocol state; it
// re-runs discovery only when the caller schedules it (ScheduleDiscovery
// or the next RunDNDP round).
func (n *Network) RestartNode(i int) error {
	if i < 0 || i >= len(n.nodes) {
		return fmt.Errorf("core: node index %d out of range", i)
	}
	nd := n.nodes[i]
	if !nd.down {
		return nil
	}
	nd.down = false
	n.medium.SetRadio(i, true)
	n.m.restarts.Inc()
	n.emit(trace.KindRestart, i, -1, "node restarted with empty state")
	return nil
}

// ExpireStaleNeighbors implements the monitor-timeout policy of §IV-A at
// the message level: a node stops monitoring a session code once the
// corresponding neighbor has been silent past the threshold, i.e. — at
// this fidelity — once the peer is no longer a physical neighbor. Both
// endpoints drop the relationship and the per-peer protocol state, so a
// later encounter runs discovery afresh. It returns the number of logical
// links dropped.
func (n *Network) ExpireStaleNeighbors() int {
	droppedPairs := map[[2]ibc.NodeID]bool{}
	for _, nd := range n.nodes {
		if nd.down {
			continue // crashed nodes already lost all state
		}
		adjacent := map[ibc.NodeID]bool{}
		for _, v := range n.graph.Adj[nd.index] {
			if !n.nodes[v].down {
				adjacent[ibc.NodeID(v)] = true // a crashed peer is silent: expire it
			}
		}
		for _, peer := range nd.neighborIDs() {
			if adjacent[peer] {
				continue
			}
			nd.forgetPeer(peer)
			droppedPairs[pairKey(nd.id, peer)] = true
			n.m.expiries.Inc()
			n.emit(trace.KindExpiry, nd.index, int(peer), "monitor timeout: peer out of range or silent")
		}
	}
	return len(droppedPairs)
}

// ExpireSilentSessions models the §IV-A inactivity monitor timeout on the
// session itself: any logical-neighbor entry whose peer never reciprocated
// (the peer's neighbor table lacks this node — its side crashed
// mid-handshake or the closing message was destroyed) is dropped.
// Together with the half-open GC this restores the symmetry invariant
// after arbitrary fault schedules. It returns the number of one-sided
// entries dropped.
func (n *Network) ExpireSilentSessions() int {
	dropped := 0
	for _, nd := range n.nodes {
		if nd.down || nd.compromised {
			continue
		}
		for _, peer := range nd.neighborIDs() {
			if n.nodes[peer].IsLogicalNeighbor(nd.id) {
				continue
			}
			delete(nd.neighbors, peer)
			dropped++
			n.m.silentExpiries.Inc()
			n.emit(trace.KindExpiry, nd.index, int(peer), "inactivity timeout: peer never reciprocated")
		}
	}
	return dropped
}

// CompromiseCodes hands the listed pool codes to the adversary without
// compromising any node — modeling code leakage (e.g. side-channel capture
// of a correlator). Chaos scenarios use it to build worst-case jamming
// fault plans.
func (n *Network) CompromiseCodes(codes []codepool.CodeID) error {
	for _, c := range codes {
		if c < 0 || int(c) >= n.pool.S() {
			return fmt.Errorf("core: code %d out of pool range [0, %d)", c, n.pool.S())
		}
		n.compromisedCodes.Add(c)
	}
	return nil
}

// UpdatePositions moves the nodes (e.g. one mobility step) and rebuilds
// the physical-neighbor graph; subsequent transmissions use the new
// topology. Logical-neighbor state is kept — as in the paper, a node drops
// a logical neighbor only when its monitoring timer expires, which the
// next discovery round models by simply re-running the protocols.
func (n *Network) UpdatePositions(positions []field.Point) error {
	if len(positions) != len(n.nodes) {
		return fmt.Errorf("core: %d positions for %d nodes", len(positions), len(n.nodes))
	}
	graph, err := field.PhysicalGraph(n.deploy, positions, n.params.Range)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	copy(n.positions, positions)
	n.graph = graph
	return nil
}

// MediumStats returns the medium's delivery counters.
func (n *Network) MediumStats() radio.Stats { return n.medium.Stats() }

// CompromisedCodes returns the number of codes the adversary knows.
func (n *Network) CompromisedCodes() int { return n.compromisedCodes.Len() }

// Compromise hands the listed nodes (and their spread codes) to the
// adversary.
func (n *Network) Compromise(nodes []int) error {
	for _, i := range nodes {
		if i < 0 || i >= len(n.nodes) {
			return fmt.Errorf("core: compromise index %d out of range", i)
		}
		if n.nodes[i].compromised {
			continue
		}
		n.nodes[i].compromised = true
		for _, c := range n.nodes[i].codes {
			n.compromisedCodes.Add(c)
		}
	}
	return nil
}

// CompromiseRandom compromises q distinct random nodes.
func (n *Network) CompromiseRandom(q int) ([]int, error) {
	if q < 0 || q > len(n.nodes) {
		return nil, fmt.Errorf("core: cannot compromise %d of %d nodes", q, len(n.nodes))
	}
	perm := n.streams.Get("compromise").Perm(len(n.nodes))[:q]
	if err := n.Compromise(perm); err != nil {
		return nil, err
	}
	return perm, nil
}

// pairKey is the unordered pair {a, b} as a map key, lower ID first.
func pairKey(a, b ibc.NodeID) [2]ibc.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]ibc.NodeID{a, b}
}

// recordDiscovery is called once self has newly accepted peer; if peer
// already holds self as a logical neighbor, the pair is recorded as
// mutually discovered. Neighbor tables hold only authenticated peers,
// whose IDs are node indices.
func (n *Network) recordDiscovery(self, peer ibc.NodeID, via DiscoveryMethod) {
	if !n.nodes[peer].IsLogicalNeighbor(self) {
		return
	}
	now := n.engine.Now()
	key := pairKey(self, peer)
	a, b := key[0], key[1]
	latency := sim.Time(0)
	if t0, ok := n.initTime[a]; ok {
		latency = now - t0
	}
	if t0, ok := n.initTime[b]; ok && (latency == 0 || now-t0 < latency) {
		if now-t0 > 0 {
			latency = now - t0
		}
	}
	n.m.discoveries[via].Inc()
	n.m.discoveryLatency.Observe(float64(latency))
	n.pairs = append(n.pairs, PairDiscovery{A: a, B: b, Via: via, At: now, Latency: latency})
}

// Discoveries returns all mutually discovered pairs so far.
func (n *Network) Discoveries() []PairDiscovery {
	out := make([]PairDiscovery, len(n.pairs))
	copy(out, n.pairs)
	return out
}

// DiscoveredPair reports whether nodes i and j are mutual logical
// neighbors.
func (n *Network) DiscoveredPair(i, j int) bool {
	return n.nodes[i].IsLogicalNeighbor(ibc.NodeID(j)) &&
		n.nodes[j].IsLogicalNeighbor(ibc.NodeID(i))
}

// RunDNDP schedules every non-compromised node to initiate D-NDP at a
// uniform random time in [0, window) — the paper's randomized periodic
// initiation — and runs the engine until quiescent.
func (n *Network) RunDNDP(window sim.Time) error {
	if err := n.runRound("dndp-start", window, (*Node).startDNDP); err != nil {
		return err
	}
	n.closeAttemptSpans("quiesced")
	return nil
}

// RunMNDP schedules every non-compromised node to initiate M-NDP at a
// uniform random time in [0, window) and runs the engine until quiescent.
func (n *Network) RunMNDP(window sim.Time) error {
	return n.runRound("mndp-start", window, (*Node).initiateMNDP)
}

// runRound draws, in node order from the named stream, a start time in
// [0, window) for every live honest node, schedules start there (which
// does nothing if the node has crashed by then), and runs the engine until
// quiescent.
func (n *Network) runRound(stream string, window sim.Time, start func(*Node)) error {
	rng := n.streams.Get(stream)
	for _, node := range n.nodes {
		if node.compromised || node.down {
			continue
		}
		if _, err := n.engine.Schedule(sim.Time(rng.Float64())*window, func() { start(node) }); err != nil {
			return err
		}
	}
	return n.engine.Run()
}

// send is the single egress path of the protocol engine: it encodes the
// typed payload into a canonical wire frame, sizes it with
// wire.PayloadBits, and puts the frame on the medium (to == -1
// broadcasts). Everything a receiver sees is bytes — an on-air
// interceptor can corrupt, record, or replay them, and the receiver's
// decoder is the only thing standing between those bytes and protocol
// state.
func (n *Network) send(from, to, kind int, code codepool.CodeID, payload any) error {
	frame, err := wire.Encode(kind, payload, n.limits)
	if err != nil {
		return fmt.Errorf("core: encode %s: %w", wire.KindName(kind), err)
	}
	msg := radio.Message{Kind: kind, Code: code, PayloadBits: wire.PayloadBits(n.params, payload), Frame: frame}
	if to < 0 {
		return n.medium.Broadcast(from, msg)
	}
	return n.medium.Unicast(from, to, msg)
}

// handle is the single ingress path. A receiver gets at the bits of a
// frame only by de-spreading it (§IV-A), so a D-NDP frame spread with a
// code the node does not hold (or has locally revoked, §V-D) is dropped
// before any decoding. The rest are decoded under the derived limits and
// dispatched on the *decoded* kind — a corrupted kind byte or payload is a
// decode error, not a misrouted struct. Frames the decoder rejects are
// counted (`decode_errors`) and traced, never processed.
func (nd *Node) handle(from int, msg radio.Message) {
	if nd.compromised || nd.down {
		return // compromised nodes do not run the honest protocol; crashed radios are off
	}
	if !nd.despreads(msg.Kind, msg.Code) {
		return
	}
	kind, payload, err := wire.Decode(msg.Frame, nd.net.limits)
	if err != nil {
		nd.net.m.decodeErrors.Inc()
		nd.net.emit(trace.KindDrop, nd.index, from, fmt.Sprintf("frame rejected by decoder: %v", err))
		return
	}
	if kind != msg.Kind && !nd.despreads(kind, msg.Code) {
		return // a corrupted kind byte made a D-NDP payload of a frame on another code
	}
	// wire.Decode returns the payload type that matches the kind.
	switch kind {
	case wire.KindHello:
		nd.onHello(from, msg.Code, payload.(wire.Hello))
	case wire.KindConfirm:
		nd.onConfirm(msg.Code, payload.(wire.Confirm))
	case wire.KindAuth1:
		nd.onAuth1(from, msg.Code, payload.(wire.Auth))
	case wire.KindAuth2:
		nd.onAuth2(msg.Code, payload.(wire.Auth))
	case wire.KindMNDPRequest:
		nd.onMNDPRequest(from, payload.(wire.MNDPRequest))
	case wire.KindMNDPResponse:
		nd.onMNDPResponse(from, payload.(wire.MNDPResponse))
	case wire.KindSessionHello:
		nd.onSessionHello(from, payload.(wire.Session))
	case wire.KindSessionConfirm:
		nd.onSessionConfirm(from, payload.(wire.Session))
	}
}

// despreads reports whether the node can de-spread a frame of the given
// kind spread with code: the four D-NDP kinds travel on pool codes, which
// need holdsCode; M-NDP and session frames travel on session codes.
func (nd *Node) despreads(kind int, code codepool.CodeID) bool {
	switch kind {
	case wire.KindHello, wire.KindConfirm, wire.KindAuth1, wire.KindAuth2:
		return nd.holdsCode(code)
	}
	return true
}
