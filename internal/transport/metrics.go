package transport

import "repro/internal/metrics"

// transportMetrics holds the endpoint's instruments. Without a registry
// every handle is nil, and the metrics package makes each update on a nil
// handle a no-op.
type transportMetrics struct {
	peers      *metrics.Gauge
	txDgrams   *metrics.Counter
	rxDgrams   *metrics.Counter
	handshakes *metrics.Counter
	drops      map[string]*metrics.Counter // by drop reason
}

// Drop reasons, used both as metric labels and trace details.
const (
	dropDecode    = "decode"
	dropRatelimit = "ratelimit"
	dropUnknown   = "unknown_peer"
)

func newTransportMetrics(reg *metrics.Registry) *transportMetrics {
	m := &transportMetrics{
		peers:      reg.Gauge("jrsnd_transport_peers", "authenticated peers currently registered"),
		txDgrams:   reg.Counter("jrsnd_node_tx_datagrams_total", "UDP datagrams transmitted"),
		rxDgrams:   reg.Counter("jrsnd_node_rx_datagrams_total", "UDP datagrams received"),
		handshakes: reg.Counter("jrsnd_transport_handshakes_total", "handshakes completed (peer registrations)"),
		drops:      map[string]*metrics.Counter{},
	}
	for _, reason := range []string{dropDecode, dropRatelimit, dropUnknown} {
		m.drops[reason] = reg.Counter(`jrsnd_transport_drops_total{reason="`+metrics.EscapeLabelValue(reason)+`"}`,
			"datagrams dropped by the transport receive path, by reason")
	}
	return m
}
