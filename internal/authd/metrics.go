package authd

import "repro/internal/metrics"

// serverMetrics resolves the service instruments once at construction
// (the repo's handles-not-lookups rule); every handler path increments
// its counters with a single atomic op.
type serverMetrics struct {
	requests map[string]*metrics.Counter // per route
	errors   map[string]*metrics.Counter // per route
	latency  map[string]*metrics.Histogram

	provisionedNodes *metrics.Counter
	joins            *metrics.Counter
	expansions       *metrics.Counter
	revokeReports    *metrics.Counter
	revokedCodes     *metrics.Counter
	ratelimited      *metrics.Counter
	decodeErrors     *metrics.Counter
	exhausted        *metrics.Counter
	inflight         *metrics.Gauge
	epoch            *metrics.Gauge

	// Durability instruments (satellite of the WAL layer). Registered
	// unconditionally so the exposition is stable; they stay zero on an
	// in-memory server.
	walAppends     *metrics.Counter
	walFsyncs      *metrics.Counter
	walReplayed    *metrics.Counter
	walTornTails   *metrics.Counter
	snapshots      *metrics.Counter
	snapshotErrors *metrics.Counter
	snapshotAge    *metrics.Gauge
}

// metricRoutes is every route that gets per-route request instruments.
var metricRoutes = []string{"provision", "join", "revoke", "epoch", "node", "healthz", "metrics"}

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	m := &serverMetrics{
		requests: map[string]*metrics.Counter{},
		errors:   map[string]*metrics.Counter{},
		latency:  map[string]*metrics.Histogram{},
	}
	// 100 µs .. ~3.3 s, parameter-independent so snapshots merge.
	bounds := metrics.ExponentialBounds(1e-4, 2, 16)
	for _, route := range metricRoutes {
		m.requests[route] = reg.Counter(
			`authd_requests_total{route="`+route+`"}`, "requests served per route")
		m.errors[route] = reg.Counter(
			`authd_errors_total{route="`+route+`"}`, "requests refused per route")
		m.latency[route] = reg.Histogram(
			`authd_request_seconds{route="`+route+`"}`, "request handling latency (s)", bounds)
	}
	m.provisionedNodes = reg.Counter("authd_provisioned_nodes_total", "deployment slots handed out")
	m.joins = reg.Counter("authd_joins_total", "late joins admitted (§V-A)")
	m.expansions = reg.Counter("authd_expansions_total", "batch expansions run (epoch advances)")
	m.revokeReports = reg.Counter("authd_revoke_reports_total", "invalid-code reports received (§V-D)")
	m.revokedCodes = reg.Counter("authd_revoked_codes_total", "codes that crossed the γ threshold")
	m.ratelimited = reg.Counter("authd_ratelimited_total", "requests refused by the per-client token bucket")
	m.decodeErrors = reg.Counter("authd_decode_errors_total", "request bodies rejected by the bounded decoder")
	m.exhausted = reg.Counter("authd_exhausted_total", "provisions refused because deployment slots ran out")
	m.inflight = reg.Gauge("authd_inflight_requests", "requests currently being handled")
	m.epoch = reg.Gauge("authd_epoch", "current distribution epoch (batch expansions run)")
	m.walAppends = reg.Counter("jrsnd_authd_wal_appends_total", "mutation records appended to the write-ahead log")
	m.walFsyncs = reg.Counter("jrsnd_authd_wal_fsyncs_total", "fsyncs issued on the write-ahead log")
	m.walReplayed = reg.Counter("jrsnd_authd_wal_replayed_records_total", "WAL records applied during startup recovery")
	m.walTornTails = reg.Counter("jrsnd_authd_wal_torn_truncations_total", "torn WAL tails truncated during recovery")
	m.snapshots = reg.Counter("jrsnd_authd_snapshots_total", "durable snapshots written")
	m.snapshotErrors = reg.Counter("jrsnd_authd_snapshot_errors_total", "snapshot attempts that failed")
	m.snapshotAge = reg.Gauge("jrsnd_authd_snapshot_age_seconds", "seconds since the last durable snapshot (updated at scrape)")
	return m
}
