package main

import "time"

// endToEnd lists the untraced run's metrics, in BENCHMARK.json order.
// An operation is one n-node campaign deployment (figure-sweep), one
// frame trial (chip-channel), one chaos cell including its determinism
// rerun (protocol-engine) or one client request (authority).
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB/op"},
}

// layerStat derives one per-layer metric from a traced run.
type layerStat struct {
	name, unit string
	value      func(l *layerRun) float64
}

// layerRun is a finished traced run; values are per traced pass.
type layerRun struct {
	tr       *tracer
	passes   float64
	untraced time.Duration
	traced   time.Duration
}

func (l *layerRun) seconds(stage string) float64 {
	if st, ok := l.tr.stages[stage]; ok {
		return st.self.Seconds() / l.passes
	}
	return 0
}

func (l *layerRun) objs(stage string) float64 {
	if st, ok := l.tr.stages[stage]; ok {
		return float64(st.objs) / l.passes
	}
	return 0
}

func (l *layerRun) bytes(stage string) float64 {
	if st, ok := l.tr.stages[stage]; ok {
		return float64(st.bytes) / l.passes
	}
	return 0
}

func (l *layerRun) count(name string) float64 { return l.tr.counts[name] / l.passes }

func (l *layerRun) ratio(num, den string) float64 {
	if d := l.tr.counts[den]; d > 0 {
		return l.tr.counts[num] / d
	}
	return 0
}

func secondsOf(stage string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.seconds(stage) }
}

func objsOf(stage string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.objs(stage) }
}

func bytesOf(stage string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.bytes(stage) }
}

func countOf(name string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.count(name) }
}

func ratioOf(num, den string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.ratio(num, den) }
}

// valueOf reads a metric the workload took from the program itself.
func valueOf(name string) func(*layerRun) float64 {
	return func(l *layerRun) float64 { return l.tr.vals[name] }
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order.
// Every metric is reported on every workload; a layer a workload does
// not use reads 0 there. The comment before each group names the
// end-to-end metric and workload it should move.
var perLayer = []layerStat{
	// figure-sweep, ops_per_s: the campaign stages of one deployment.
	{"sim.new_streams_s", "s", secondsOf("sim.new_streams")},
	{"field.physical_graph_s", "s", secondsOf("field.physical_graph")},
	{"field.physical_graph_allocs", "count", objsOf("field.physical_graph")},
	{"field.hop_search_calls", "count", countOf("field.hop_search_calls")},
	{"field.hop_search_s", "s", secondsOf("field.hop_search")},
	{"field.hop_search_allocs", "count", objsOf("field.hop_search")},
	{"field.hop_search_alloc_bytes", "B", bytesOf("field.hop_search")},
	{"field.hop_search_found_ratio", "ratio", ratioOf("field.hop_search_found", "field.hop_search_calls")},
	// codepool.new_s also feeds setup_s on authority, where the server
	// builds its pool at boot.
	{"codepool.new_s", "s", secondsOf("codepool.new")},
	{"codepool.new_allocs", "count", objsOf("codepool.new")},
	{"codepool.new_alloc_bytes", "B", bytesOf("codepool.new")},
	{"codepool.compromise_s", "s", secondsOf("codepool.compromise")},
	{"codepool.shared_calls", "count", countOf("codepool.shared_calls")},
	{"codepool.shared_s", "s", secondsOf("codepool.shared")},
	{"codepool.shared_allocs", "count", objsOf("codepool.shared")},
	{"codepool.shared_alloc_bytes", "B", bytesOf("codepool.shared")},
	{"codepool.shared_empty_ratio", "ratio", ratioOf("codepool.shared_empty", "codepool.shared_calls")},
	{"radio.tryjam_calls", "count", countOf("radio.tryjam_calls")},
	{"radio.tryjam_s", "s", secondsOf("radio.tryjam")},
	{"radio.jammed_ratio", "ratio", ratioOf("radio.jammed", "radio.tryjam_calls")},
	{"experiment.measure_point_self_s", "s", secondsOf("experiment.measure_point")},
	{"experiment.measure_point_self_allocs", "count", objsOf("experiment.measure_point")},

	// chip-channel, ops_per_s: one frame trial's stages.
	{"chips.new_random_s", "s", secondsOf("chips.new_random")},
	{"chips.new_random_allocs", "count", objsOf("chips.new_random")},
	{"dsss.transmit_s", "s", secondsOf("dsss.transmit")},
	{"dsss.transmit_allocs", "count", objsOf("dsss.transmit")},
	{"dsss.channel_add_calls", "count", countOf("dsss.channel_add_calls")},
	{"dsss.channel_add_chips", "count", countOf("dsss.channel_add_chips")},
	{"dsss.channel_add_s", "s", secondsOf("dsss.channel_add")},
	{"dsss.channel_add_allocs", "count", objsOf("dsss.channel_add")},
	{"dsss.receive_s", "s", secondsOf("dsss.receive")},
	{"dsss.receive_allocs", "count", objsOf("dsss.receive")},
	{"dsss.receive_ok_ratio", "ratio", ratioOf("dsss.receive_ok", "dsss.receive_calls")},
	{"experiment.validation_self_s", "s", secondsOf("experiment.validation")},

	// protocol-engine, ops_per_s: one chaos cell run's stages, plus the
	// engine's own counters read through NetworkConfig.Metrics.
	{"core.new_network_s", "s", secondsOf("core.new_network")},
	{"core.new_network_allocs", "count", objsOf("core.new_network")},
	{"core.run_dndp_s", "s", secondsOf("core.run_dndp")},
	{"core.run_dndp_allocs", "count", objsOf("core.run_dndp")},
	{"core.run_mndp_s", "s", secondsOf("core.run_mndp")},
	{"core.run_mndp_allocs", "count", objsOf("core.run_mndp")},
	{"faults.check_invariants_s", "s", secondsOf("faults.check_invariants")},
	{"faults.cell_self_s", "s", secondsOf("faults.cell")},
	{"jrsnd_sim_events_fired_total", "count", countOf("jrsnd_sim_events_fired_total")},
	{"jrsnd_core_tx_total", "count", countOf("jrsnd_core_tx_total")},
	{"jrsnd_core_jammed_total", "count", countOf("jrsnd_core_jammed_total")},
	{"jrsnd_core_handshake_retries_total", "count", countOf("jrsnd_core_handshake_retries_total")},

	// authority, latency_p50_ms / latency_p99_ms / ops_per_s: server
	// handling time per route and WAL batching from /metrics, client
	// percentiles per operation from the load reports.
	{"authd.request_s.provision", "s", valueOf("authd.request_s.provision")},
	{"authd.request_s.join", "s", valueOf("authd.request_s.join")},
	{"authd.request_s.revoke", "s", valueOf("authd.request_s.revoke")},
	{"authd.wal_appends_per_fsync", "ratio", valueOf("authd.wal_appends_per_fsync")},
	{"authd.client_p50_ms.provision", "ms", valueOf("authd.client_p50_ms.provision")},
	{"authd.client_p50_ms.join", "ms", valueOf("authd.client_p50_ms.join")},
	{"authd.client_p50_ms.revoke", "ms", valueOf("authd.client_p50_ms.revoke")},
	{"authd.client_p99_ms.provision", "ms", valueOf("authd.client_p99_ms.provision")},
	{"authd.client_p99_ms.join", "ms", valueOf("authd.client_p99_ms.join")},
	{"authd.client_p99_ms.revoke", "ms", valueOf("authd.client_p99_ms.revoke")},
	{"authd.requests_ok", "count", countOf("authd.requests_ok")},

	// Every workload: the uncalibrated counterparts of ops_per_s and
	// setup_s (untraced passes' units and one setup, by wall clock), so a
	// calibrated figure can be checked against the raw one.
	{"raw.ops_per_s", "1/s", valueOf("raw.ops_per_s")},
	{"raw.setup_s", "s", valueOf("raw.setup_s")},

	// Every workload: tracing cost and how much of the untraced wall time
	// the layer spans account for.
	{"trace.overhead_ratio", "ratio", func(l *layerRun) float64 {
		return l.traced.Seconds()/l.untraced.Seconds() - 1
	}},
	{"trace.layer_coverage", "ratio", func(l *layerRun) float64 {
		self := l.tr.vals["authd.handler_s"]
		for name, st := range l.tr.stages {
			if layerPrefix(name) {
				self += st.self.Seconds()
			}
		}
		return self / l.untraced.Seconds()
	}},
}

// layerMetrics evaluates every per-layer metric for a traced run.
func layerMetrics(tr *tracer, passes int, untraced, traced time.Duration) map[string]metric {
	l := &layerRun{tr: tr, passes: float64(passes), untraced: untraced, traced: traced}
	m := make(map[string]metric, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = metric{s.value(l), s.unit}
	}
	return m
}
