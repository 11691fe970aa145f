package authd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Built-in load generator: drives a mixed provision/join/revoke workload
// against a live server from concurrent workers and reports throughput
// plus latency quantiles — the repo's first service-level benchmark.
// Each worker owns its Client (own jitter RNG, own connections via the
// shared transport) and draws operations from the configured mix with a
// deterministic per-worker stream, so a run is reproducible in everything
// but wall-clock timing.

// LoadConfig configures RunLoad.
type LoadConfig struct {
	// Target is the server's base URL.
	Target string
	// Workers is the number of concurrent clients (>= 1).
	Workers int
	// Requests is the total operation count across all workers (>= 1).
	Requests int
	// MixProvision/MixJoin/MixRevoke weight the operation mix; they need
	// not sum to anything in particular. All zero means 70/10/20.
	MixProvision, MixJoin, MixRevoke int
	// Batch is the slot count per provision request (0 = 1).
	Batch int
	// Seed derives the per-worker operation streams.
	Seed int64
	// Timeout bounds one operation including retries (0 = 30 s).
	Timeout time.Duration
}

// OpStats aggregates one operation type's outcomes.
type OpStats struct {
	Count       int           `json:"count"`
	Errors      int           `json:"errors"`
	Exhausted   int           `json:"exhausted,omitempty"`
	Unavailable int           `json:"unavailable,omitempty"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
	MaxLatency  time.Duration `json:"max_ns"`
}

// LoadReport is the aggregated result of one load run.
type LoadReport struct {
	Ops    int `json:"ops"`
	Errors int `json:"errors"`
	// Unavailable counts operations whose every attempt ended in a
	// transport failure or a 5xx (ErrUnavailable) — expected while a
	// crash harness has the server down, so they are not folded into
	// Errors.
	Unavailable int                `json:"unavailable,omitempty"`
	Duration    time.Duration      `json:"duration_ns"`
	Throughput  float64            `json:"ops_per_sec"`
	P50         time.Duration      `json:"p50_ns"`
	P99         time.Duration      `json:"p99_ns"`
	PerOp       map[string]OpStats `json:"per_op"`
	// FinalEpoch and Revoked snapshot the server state after the run.
	FinalEpoch int `json:"final_epoch"`
	Revoked    int `json:"revoked"`
}

type sample struct {
	op      string
	latency time.Duration
	err     error
}

// RunLoad executes the workload and aggregates a report. A provision
// call that finds the deployment exhausted counts as an Exhausted
// outcome, not an error — under a saturating run that is the expected
// steady state, and the worker keeps going with the rest of its mix.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) {
	if cfg.Target == "" {
		return LoadReport{}, fmt.Errorf("authd: loadgen needs a target URL")
	}
	if cfg.Workers < 1 {
		return LoadReport{}, fmt.Errorf("authd: loadgen Workers %d must be >= 1", cfg.Workers)
	}
	if cfg.Requests < 1 {
		return LoadReport{}, fmt.Errorf("authd: loadgen Requests %d must be >= 1", cfg.Requests)
	}
	if cfg.MixProvision < 0 || cfg.MixJoin < 0 || cfg.MixRevoke < 0 {
		return LoadReport{}, fmt.Errorf("authd: loadgen mix weights must be >= 0")
	}
	if cfg.MixProvision+cfg.MixJoin+cfg.MixRevoke == 0 {
		cfg.MixProvision, cfg.MixJoin, cfg.MixRevoke = 70, 10, 20
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}

	// The revoke stream needs the pool size to draw valid code IDs.
	probe := &Client{Base: cfg.Target, ClientID: "loadgen-probe"}
	info, err := probe.Epoch(ctx)
	if err != nil {
		return LoadReport{}, fmt.Errorf("authd: loadgen probe: %w", err)
	}
	if info.PoolSize < 1 {
		return LoadReport{}, fmt.Errorf("authd: loadgen probe: pool size %d", info.PoolSize)
	}

	total := cfg.MixProvision + cfg.MixJoin + cfg.MixRevoke
	samples := make([]sample, cfg.Requests)
	next := make(chan int, cfg.Workers)
	go func() {
		defer close(next)
		for i := 0; i < cfg.Requests; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	start := time.Now() //jrsnd:allow wallclock loadgen measures real throughput of a live HTTP server; wall time is the measurement, not simulation state
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)*1_000_003))
			cl := &Client{
				Base:     cfg.Target,
				ClientID: fmt.Sprintf("loadgen-%d", worker),
				Rand:     rand.New(rand.NewSource(cfg.Seed ^ int64(worker))),
			}
			for idx := range next {
				samples[idx] = runOp(ctx, cl, rng, cfg, total, info.PoolSize)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start) //jrsnd:allow wallclock loadgen measures real throughput of a live HTTP server; wall time is the measurement, not simulation state
	if err := ctx.Err(); err != nil {
		return LoadReport{}, err
	}

	report := aggregate(samples, elapsed)
	if final, err := probe.Epoch(ctx); err == nil {
		report.FinalEpoch = final.Epoch
		report.Revoked = final.Revoked
	}
	return report, nil
}

// runOp draws one operation from the mix and executes it.
func runOp(ctx context.Context, cl *Client, rng *rand.Rand, cfg LoadConfig, total, poolSize int) sample {
	opCtx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	pick := rng.Intn(total)
	begin := time.Now() //jrsnd:allow wallclock per-request latency sample against a live HTTP server; wall time is the measurement, not simulation state
	switch {
	case pick < cfg.MixProvision:
		_, err := cl.Provision(opCtx, cfg.Batch, "loadgen")
		return sample{op: "provision", latency: time.Since(begin), err: err} //jrsnd:allow wallclock per-request latency sample against a live HTTP server; wall time is the measurement, not simulation state
	case pick < cfg.MixProvision+cfg.MixJoin:
		_, err := cl.Join(opCtx, "loadgen")
		return sample{op: "join", latency: time.Since(begin), err: err} //jrsnd:allow wallclock per-request latency sample against a live HTTP server; wall time is the measurement, not simulation state
	default:
		_, err := cl.Revoke(opCtx, int32(rng.Intn(poolSize)))
		return sample{op: "revoke", latency: time.Since(begin), err: err} //jrsnd:allow wallclock per-request latency sample against a live HTTP server; wall time is the measurement, not simulation state
	}
}

// aggregate folds the samples into the report.
func aggregate(samples []sample, elapsed time.Duration) LoadReport {
	report := LoadReport{
		Ops:      len(samples),
		Duration: elapsed,
		PerOp:    map[string]OpStats{},
	}
	perOp := map[string][]time.Duration{}
	var all []time.Duration
	for _, s := range samples {
		if s.op == "" { // run cancelled before this slot was drawn
			report.Ops--
			continue
		}
		st := report.PerOp[s.op]
		st.Count++
		switch {
		case s.err == nil:
		case errors.Is(s.err, ErrExhausted):
			st.Exhausted++
		case errors.Is(s.err, ErrUnavailable):
			st.Unavailable++
			report.Unavailable++
		default:
			st.Errors++
			report.Errors++
		}
		if s.err == nil || errors.Is(s.err, ErrExhausted) {
			perOp[s.op] = append(perOp[s.op], s.latency)
			all = append(all, s.latency)
			if s.latency > st.MaxLatency {
				st.MaxLatency = s.latency
			}
		}
		report.PerOp[s.op] = st
	}
	if elapsed > 0 {
		report.Throughput = float64(report.Ops) / elapsed.Seconds()
	}
	report.P50, report.P99 = percentile(all, 0.50), percentile(all, 0.99)
	for op, lats := range perOp {
		st := report.PerOp[op]
		st.P50, st.P99 = percentile(lats, 0.50), percentile(lats, 0.99)
		report.PerOp[op] = st
	}
	return report
}

// percentile returns the q-quantile (nearest-rank) of the samples.
func percentile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Format renders the report for humans.
func (r LoadReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d ops in %v (%.0f ops/s), %d errors",
		r.Ops, r.Duration.Round(time.Millisecond), r.Throughput, r.Errors)
	if r.Unavailable > 0 {
		fmt.Fprintf(&b, ", %d unavailable", r.Unavailable)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "latency: p50 %v  p99 %v\n",
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	ops := make([]string, 0, len(r.PerOp))
	for op := range r.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		st := r.PerOp[op]
		fmt.Fprintf(&b, "  %-9s %6d ops  p50 %-10v p99 %-10v max %-10v errors %d",
			op, st.Count, st.P50.Round(time.Microsecond), st.P99.Round(time.Microsecond),
			st.MaxLatency.Round(time.Microsecond), st.Errors)
		if st.Exhausted > 0 {
			fmt.Fprintf(&b, " exhausted %d", st.Exhausted)
		}
		if st.Unavailable > 0 {
			fmt.Fprintf(&b, " unavailable %d", st.Unavailable)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "server: epoch %d, %d codes revoked\n", r.FinalEpoch, r.Revoked)
	return b.String()
}
