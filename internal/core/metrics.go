package core

import (
	"repro/internal/metrics"
	"repro/internal/wire"
)

// coreMetrics is the protocol engine's telemetry handle set, resolved once
// at network construction so the hot paths (every transmission, every
// discovery) update instruments with a single atomic op. All handles come
// from the registry in NetworkConfig.Metrics; when that is nil every handle
// is nil and each update is a no-op.
type coreMetrics struct {
	tx     map[int]*metrics.Counter // transmissions by message kind
	jammed map[int]*metrics.Counter // jammed transmissions by message kind

	discoveryLatency *metrics.Histogram
	discoveries      map[DiscoveryMethod]*metrics.Counter

	mndpForwards *metrics.Counter   // M-NDP request relays sent
	mndpFanout   *metrics.Histogram // unicast targets per flood step

	invalidReports *metrics.Counter
	revokedLocal   *metrics.Counter
	revokedGlobal  *metrics.Counter
	expiries       *metrics.Counter

	// Robustness instruments: retry/backoff state machine and churn.
	retries        *metrics.Counter
	fallbacks      *metrics.Counter
	halfOpenGC     *metrics.Counter
	crashes        *metrics.Counter
	restarts       *metrics.Counter
	silentExpiries *metrics.Counter

	// Byzantine-defense instruments: the wire codec and the replay/DoS
	// defenses.
	decodeErrors   *metrics.Counter
	replaysDropped *metrics.Counter
	ratelimited    *metrics.Counter
}

// messageKinds lists every protocol message kind, for per-kind counters.
var messageKinds = []int{
	wire.KindHello, wire.KindConfirm, wire.KindAuth1, wire.KindAuth2,
	wire.KindMNDPRequest, wire.KindMNDPResponse, wire.KindSessionHello, wire.KindSessionConfirm,
}

// discoveryLatencyBounds is parameter-independent (exponential from 1 ms to
// ~17 min) so snapshots from campaigns with different Table I settings
// still merge.
var discoveryLatencyBounds = metrics.ExponentialBounds(0.001, 2, 20)

// fanoutBounds covers the M-NDP flood fan-out per step.
var fanoutBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// newCoreMetrics registers the protocol-engine instruments on reg, which
// may be nil.
func newCoreMetrics(reg *metrics.Registry) *coreMetrics {
	m := &coreMetrics{
		tx:          map[int]*metrics.Counter{},
		jammed:      map[int]*metrics.Counter{},
		discoveries: map[DiscoveryMethod]*metrics.Counter{},

		discoveryLatency: reg.Histogram("jrsnd_core_discovery_latency_seconds",
			"mutual pair-discovery latency", discoveryLatencyBounds),
		mndpForwards: reg.Counter("jrsnd_core_mndp_forwards_total",
			"M-NDP request unicasts sent during flooding"),
		mndpFanout: reg.Histogram("jrsnd_core_mndp_fanout",
			"M-NDP flood fan-out (unicast targets per flood step)", fanoutBounds),
		invalidReports: reg.Counter("jrsnd_core_invalid_reports_total",
			"invalid-message reports feeding the revocation counters (§V-D)"),
		revokedLocal: reg.Counter("jrsnd_core_revocations_local_total",
			"codes locally revoked after gamma invalid messages"),
		revokedGlobal: reg.Counter("jrsnd_core_revocations_global_total",
			"authority-driven network-wide code revocations"),
		expiries: reg.Counter("jrsnd_core_neighbor_expiries_total",
			"logical neighbors dropped by the monitor timeout"),
		retries: reg.Counter("jrsnd_core_handshake_retries_total",
			"D-NDP re-initiations by the retry/backoff state machine"),
		fallbacks: reg.Counter("jrsnd_core_mndp_fallbacks_total",
			"graceful degradations from D-NDP to M-NDP after retry exhaustion"),
		halfOpenGC: reg.Counter("jrsnd_core_halfopen_gc_total",
			"half-open handshake records reclaimed by the session timeout"),
		crashes: reg.Counter("jrsnd_core_node_crashes_total",
			"node crashes injected by churn fault plans"),
		restarts: reg.Counter("jrsnd_core_node_restarts_total",
			"node restarts after churn crashes"),
		silentExpiries: reg.Counter("jrsnd_core_silent_expiries_total",
			"one-sided sessions dropped by the inactivity monitor timeout"),
		decodeErrors: reg.Counter("jrsnd_core_decode_errors_total",
			"received frames rejected by the wire codec (truncated, oversized, or malformed)"),
		replaysDropped: reg.Counter("jrsnd_core_replays_dropped_total",
			"valid-looking AUTH frames dropped by the per-peer replay window"),
		ratelimited: reg.Counter("jrsnd_core_ratelimited_total",
			"handshake-record creations refused by the per-transmitter half-open budget"),
	}
	// Labels are concatenated rather than formatted with fmt: this runs
	// for every NewNetwork, metrics on or off, and no name needs quoting.
	for _, k := range messageKinds {
		label := `{kind="` + wire.KindName(k) + `"}`
		m.tx[k] = reg.Counter("jrsnd_core_tx_total"+label, "protocol transmissions by message kind")
		m.jammed[k] = reg.Counter("jrsnd_core_jammed_total"+label, "jammed transmissions by message kind")
	}
	for _, via := range []DiscoveryMethod{ViaDNDP, ViaMNDP} {
		m.discoveries[via] = reg.Counter(`jrsnd_core_discoveries_total{via="`+via.String()+`"}`,
			"mutual discoveries by protocol")
	}
	return m
}
