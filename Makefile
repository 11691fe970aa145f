GO ?= go
FUZZTIME ?= 30s

.PHONY: build test tier1 race bench report chaos fuzz vuln authd-smoke authd-bench authd-crash lint lint-fixtures prof benchgate node-e2e

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# tier1 is the full quality gate: vet plus the whole suite under the race
# detector (the trace sinks and metric registry are exercised concurrently;
# the suite already includes the chaos matrix and the authd smoke tests,
# so the chaos and authd-smoke targets are not run a second time), then
# the crash, end-to-end and benchmark harnesses. perfbench is
# its own module, so the root ./... never compiles it; building and
# vetting it here catches a library API change that would break the
# benchmark harness.
tier1: build
	$(GO) vet ./...
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...
	$(MAKE) lint
	$(MAKE) lint-fixtures
	$(GO) test -race ./...
	$(MAKE) authd-crash
	$(MAKE) node-e2e
	$(MAKE) benchgate

# benchgate measures the hot-path benchmarks (sim scheduler, DSSS receive
# path, authd handlers, transport, field hop search, codepool, the ibc
# key/signature/session-code primitives and memoised Verifier, the core
# event engine's D-NDP/M-NDP rounds, the Reed-Solomon codec, and chip
# correlation) against the checked-in BENCH_*.json baselines and fails on a >2x slowdown or on any allocs/op
# above the baseline.
# Re-baseline deliberately with `go run ./cmd/jrsnd-benchgate -update`.
# See docs/observability.md.
benchgate:
	$(GO) run ./cmd/jrsnd-benchgate

# lint first fails if gofmt would rewrite any file (fix with `gofmt -w`),
# then machine-enforces the repo invariants (determinism, bounded decode,
# constant-time compares, goroutine lifecycle, lock ordering, hot-path
# allocation freedom) with the stdlib-only analyzer in internal/lint;
# JSON findings are folded into a one-line summary and the pipeline exits
# non-zero on any unsuppressed finding. Restrict the run with
# `make lint LINT_CHECKS=goroutinelifecycle,lockorder`. See
# docs/static-analysis.md.
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l lists files that need gofmt -w:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/jrsnd-lint -json $(if $(LINT_CHECKS),-checks $(LINT_CHECKS)) ./... | $(GO) run ./cmd/jrsnd-lint -summarize

# lint-fixtures is the analyzer liveness gate: every seeded-violation
# fixture (leaked goroutine, AB/BA lock cycle, allocating hot path, plus
# the lexical goldens) must produce exactly its expected findings, and
# the gcflags=-m escape cross-check must agree with hotpathalloc. A
# broken analyzer that reports nothing fails here instead of letting
# `make lint` pass vacuously.
lint-fixtures:
	$(GO) test -count=1 -run 'TestGolden|TestSeeded|TestStale|TestSuiteScope|TestHotpathEscape' ./internal/lint ./cmd/jrsnd-lint

# chaos runs the fault-injection matrix under the race detector: jammer ×
# churn × channel-loss cells with invariant and determinism checking. See
# docs/robustness.md.
chaos:
	$(GO) test -race -run 'TestChaosMatrix|TestRunChaosMatrixPasses' ./internal/faults ./cmd/jrsnd-sim

race:
	$(GO) test -race ./...

# authd-smoke boots the authority service on an ephemeral port, provisions
# a batch, revokes a code past γ, asserts the /metrics counters, runs a
# small mixed loadgen pass, and shuts down gracefully. See docs/authority.md.
authd-smoke:
	$(GO) test -race -run 'TestAuthdSmoke|TestLoadgenLoopback' ./cmd/jrsnd-authority

# authd-crash runs the crash-fault injection harness: the in-process
# crash matrix (panic-based hooks at every WAL/snapshot crash point),
# then a subprocess kill-restart loop that boots the real binary armed to
# exit(137) at each point, hammers it with the loadgen, and verifies the
# recovery invariants with authd.Ledger, the one ledger of acknowledged
# mutations. Exits 1 on any violation. See docs/authority.md §9.4.
authd-crash:
	$(GO) run ./cmd/jrsnd-authority -crash-harness -crash-cycles 2

# node-e2e runs the real-socket end-to-end harness: a jrsnd-authority
# subprocess plus NODES jrsnd-node daemons on loopback UDP, full mutual
# authenticated discovery, SIGKILL + same-slot restart of one daemon with
# reap and re-discovery, zero invariant violations, clean shutdowns.
# Exits 1 on any violation. See docs/transport.md.
NODES ?= 8
node-e2e:
	mkdir -p bin
	$(GO) build -o bin/jrsnd-authority ./cmd/jrsnd-authority
	$(GO) build -o bin/jrsnd-node ./cmd/jrsnd-node
	bin/jrsnd-node -e2e -e2e-nodes $(NODES) -e2e-authority bin/jrsnd-authority

# authd-bench re-measures the service by hand: handler micro-benches plus
# a loadgen run over real loopback HTTP. The gated numbers are benchgate's
# BENCH_authd_go.json and the benchmark's `authority` workload.
authd-bench:
	$(GO) test -run xxx -bench 'BenchmarkProvision|BenchmarkRevoke' -benchmem ./internal/authd
	$(GO) run ./cmd/jrsnd-authority -loadgen -n 2000 -m 16 -l 20 -requests 4000 -workers 8 -batch 2

# prof profiles a chaos-matrix run end to end: CPU and heap profiles land
# in prof/ next to one JSONL span trace per cell, ready for
# `go tool pprof prof/cpu.out` and `jrsnd-report -trace prof/traces`.
# See docs/observability.md.
prof:
	mkdir -p prof
	$(GO) run ./cmd/jrsnd-sim -chaos -trace-jsonl prof/traces -cpuprofile prof/cpu.out -memprofile prof/heap.out
	$(GO) run ./cmd/jrsnd-report -trace prof/traces -trace-only -folded prof/flame.folded -o prof/spans.md

# fuzz runs every native fuzz target (wire decoder, handshake transcript,
# DSSS sync window, chip-channel superposition against its per-chip
# reference, Reed-Solomon decoder and round trip, authd request decoder,
# WAL replay/boot path, snapshot decoder, transport datagram dispatch, the
# memoised signature Verifier against the reference ibc.Verify) for
# FUZZTIME each; TestMakeFuzzCoversEveryTarget fails when a Fuzz function
# is missing here. Out of tier1: run it before releases or after touching
# a codec, receive path, or the durability layer.
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run xxx -fuzz FuzzHandshakeTranscript -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzSyncWindow -fuzztime $(FUZZTIME) ./internal/dsss
	$(GO) test -run xxx -fuzz FuzzChannelAdd -fuzztime $(FUZZTIME) ./internal/dsss
	$(GO) test -run xxx -fuzz FuzzDecodeNeverPanics -fuzztime $(FUZZTIME) ./internal/rs
	$(GO) test -run xxx -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/rs
	$(GO) test -run xxx -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) ./internal/authd
	$(GO) test -run xxx -fuzz FuzzReplayWAL -fuzztime $(FUZZTIME) ./internal/authd
	$(GO) test -run xxx -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME) ./internal/authd
	$(GO) test -run xxx -fuzz FuzzDatagram -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run xxx -fuzz FuzzVerifier -fuzztime $(FUZZTIME) ./internal/ibc

# vuln scans the module against the Go vulnerability database. Out of
# tier1: needs network access and the govulncheck tool
# (golang.org/x/vuln/cmd/govulncheck).
vuln:
	govulncheck ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

report:
	$(GO) run ./cmd/jrsnd-report -runs 20 -o report.md
