package authd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/codepool"
	"repro/internal/metrics"
)

// HTTP surface. Every route runs through handle(), which tracks the
// in-flight gauge/WaitGroup (so Shutdown can drain), applies the
// per-client rate limit to mutating routes, reads the body under the
// MaxBody cap, and observes per-route latency. Handlers return
// (status, payload) or an error; errors map onto HTTP statuses through
// the typed taxonomies of codec.go and authd.go.

// Assignment is one node's provisioning result.
type Assignment struct {
	Node  int               `json:"node"`
	Codes []codepool.CodeID `json:"codes"`
}

// ProvisionResponse answers POST /v1/provision. Seq is the WAL sequence
// of the acknowledged mutation (0 on an in-memory server); failover
// harnesses use it to reason about which replicas must hold the record.
type ProvisionResponse struct {
	Nodes []Assignment `json:"nodes"`
	Epoch int          `json:"epoch"`
	Seq   uint64       `json:"seq,omitempty"`
}

// JoinResponse answers POST /v1/join.
type JoinResponse struct {
	Node     int               `json:"node"`
	Codes    []codepool.CodeID `json:"codes"`
	Epoch    int               `json:"epoch"`
	Expanded bool              `json:"expanded"`
	Seq      uint64            `json:"seq,omitempty"`
}

// RevokeResult answers POST /v1/revoke.
type RevokeResult struct {
	Code       int32  `json:"code"`
	Count      int    `json:"count"`
	Revoked    bool   `json:"revoked"`
	RevokedNow bool   `json:"revoked_now"`
	Seq        uint64 `json:"seq,omitempty"`
}

// EpochInfo answers GET /v1/epoch.
type EpochInfo struct {
	Epoch       int `json:"epoch"`
	VacantSlots int `json:"vacant_slots"`
	PoolSize    int `json:"pool_size"`
	Provisioned int `json:"provisioned"`
	Joined      int `json:"joined"`
	Revoked     int `json:"revoked"`
}

// NodeInfo answers GET /v1/node.
type NodeInfo struct {
	Node  int               `json:"node"`
	Codes []codepool.CodeID `json:"codes"`
	Via   string            `json:"via"`
	Tag   string            `json:"tag,omitempty"`
}

// errorBody is the uniform error response.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("/v1/provision", s.handle("provision", http.MethodPost, true, s.handleProvision))
	s.mux.HandleFunc("/v1/join", s.handle("join", http.MethodPost, true, s.handleJoin))
	s.mux.HandleFunc("/v1/revoke", s.handle("revoke", http.MethodPost, true, s.handleRevoke))
	s.mux.HandleFunc("/v1/epoch", s.handle("epoch", http.MethodGet, false, s.handleEpoch))
	s.mux.HandleFunc("/v1/node", s.handle("node", http.MethodGet, false, s.handleNode))
	s.mux.HandleFunc("/healthz", s.handle("healthz", http.MethodGet, false, s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.handle("metrics", http.MethodGet, false, s.handleMetrics))
	// Replication surface (replicate.go): the record stream and snapshot
	// transfer followers pull from, the status probe clients and
	// harnesses use to find the primary, and the promotion/partition
	// controls. Unlimited: followers are infrastructure, not clients.
	s.mux.HandleFunc("/v1/replicate", s.handle("replicate", http.MethodGet, false, s.handleReplicate))
	s.mux.HandleFunc("/v1/replicate/snapshot", s.handle("replsnap", http.MethodGet, false, s.handleReplicateSnapshot))
	s.mux.HandleFunc("/v1/replication", s.handle("replication", http.MethodGet, false, s.handleReplicationStatus))
	s.mux.HandleFunc("/v1/promote", s.handle("promote", http.MethodPost, false, s.handlePromote))
	s.mux.HandleFunc("/v1/replpause", s.handle("replpause", http.MethodPost, false, s.handleReplPause))
	if s.cfg.EnableProfiling {
		// Continuous-profiling surface, opt-in: the default mux is never
		// used, so the stdlib's side-effect registration does not apply and
		// the handlers are mounted explicitly.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// handlerFunc is the inner handler shape: the decoded body is handed in,
// the response payload (marshaled as JSON unless it is a rawResponse)
// comes back.
type handlerFunc func(r *http.Request, body []byte) (int, any, error)

// rawResponse bypasses JSON marshaling (the /metrics exposition, the
// binary replication stream). header carries extra response headers.
type rawResponse struct {
	contentType string
	data        []byte
	header      map[string]string
}

// clientKey identifies the caller for rate limiting: the self-declared
// X-Client-ID if present, else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handle(route, method string, limited bool, fn handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.admit() {
			s.fail(w, route, http.StatusServiceUnavailable, errDraining)
			return
		}
		defer s.inflight.Done()
		s.m.inflight.Add(1)
		defer s.m.inflight.Add(-1)
		start := s.cfg.now()
		s.m.requests[route].Inc()
		if s.tracer != nil {
			// One span per request, timestamped in seconds since server
			// start so the stream stays near-monotonic for JSONL sinks.
			sp := s.tracer.Start(start.Sub(s.start).Seconds(), 0, -1, -1, "authd."+route)
			defer func() {
				s.tracer.End(s.cfg.now().Sub(s.start).Seconds(), sp, -1, -1, "")
			}()
		}

		if r.Method != method {
			w.Header().Set("Allow", method)
			s.fail(w, route, http.StatusMethodNotAllowed, fmt.Errorf("authd: %s requires %s", route, method))
			return
		}
		if limited && s.isFollower() {
			// Mutations only land on the primary: a follower's state is a
			// replica of its upstream's WAL, so accepting a mutation here
			// would fork the history. The hint header lets clients jump
			// straight to the primary instead of probing.
			if hint := s.getPrimaryHint(); hint != "" {
				w.Header().Set("X-JRSND-Primary", hint)
			}
			s.fail(w, route, http.StatusMisdirectedRequest, ErrNotPrimary)
			return
		}
		if limited && s.rl != nil && !s.rl.allow(clientKey(r)) {
			s.m.ratelimited.Inc()
			w.Header().Set("Retry-After", "1")
			s.fail(w, route, http.StatusTooManyRequests, ErrRateLimited)
			return
		}
		// Read at most MaxBody+1 bytes: the extra byte distinguishes
		// "exactly at the cap" from "over it" without ever buffering an
		// unbounded body.
		body, err := io.ReadAll(io.LimitReader(r.Body, int64(s.lim.MaxBody)+1))
		if err != nil {
			s.fail(w, route, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrSyntax, err))
			return
		}
		if len(body) > s.lim.MaxBody {
			s.m.decodeErrors.Inc()
			s.fail(w, route, http.StatusRequestEntityTooLarge, ErrTooLarge)
			return
		}
		if s.hookEntered != nil {
			s.hookEntered(route)
		}

		status, payload, err := fn(r, body)
		if err != nil {
			s.fail(w, route, statusFor(err), err)
			return
		}
		s.m.latency[route].Observe(s.cfg.now().Sub(start).Seconds())
		if raw, ok := payload.(rawResponse); ok {
			w.Header().Set("Content-Type", raw.contentType)
			for k, v := range raw.header {
				w.Header().Set(k, v)
			}
			w.WriteHeader(status)
			_, _ = w.Write(raw.data)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(payload)
	}
}

// statusFor maps the typed error taxonomies onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrSyntax), errors.Is(err, ErrField):
		return http.StatusBadRequest
	case errors.Is(err, ErrExhausted):
		return http.StatusConflict
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNotPrimary):
		return http.StatusMisdirectedRequest
	case errors.Is(err, ErrSyncTimeout):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNoReplication):
		return http.StatusPreconditionFailed
	case errors.Is(err, ErrPromotionGate):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) fail(w http.ResponseWriter, route string, status int, err error) {
	s.m.errors[route].Inc()
	if errors.Is(err, ErrSyntax) || errors.Is(err, ErrField) || errors.Is(err, ErrTooLarge) {
		s.m.decodeErrors.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

func (s *Server) handleProvision(r *http.Request, body []byte) (int, any, error) {
	req, err := DecodeProvisionRequest(body, s.lim)
	if err != nil {
		return 0, nil, err
	}
	nodes, seq, err := s.provision(req.Count, req.Tag)
	if err != nil {
		if errors.Is(err, ErrExhausted) {
			s.m.exhausted.Inc()
		}
		return 0, nil, err
	}
	s.noteMutation()
	if err := s.waitReplicated(r.Context().Done(), seq); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, ProvisionResponse{Nodes: nodes, Epoch: s.Epoch(), Seq: seq}, nil
}

func (s *Server) handleJoin(r *http.Request, body []byte) (int, any, error) {
	req, err := DecodeJoinRequest(body, s.lim)
	if err != nil {
		return 0, nil, err
	}
	a, expanded, seq, err := s.join(req.Tag)
	if err != nil {
		return 0, nil, err
	}
	s.noteMutation()
	if err := s.waitReplicated(r.Context().Done(), seq); err != nil {
		return 0, nil, err
	}
	epoch := s.Epoch()
	s.m.epoch.SetMax(float64(epoch))
	return http.StatusOK, JoinResponse{Node: a.Node, Codes: a.Codes, Epoch: epoch, Expanded: expanded, Seq: seq}, nil
}

func (s *Server) handleRevoke(r *http.Request, body []byte) (int, any, error) {
	req, err := DecodeRevokeRequest(body, s.lim)
	if err != nil {
		return 0, nil, err
	}
	res, err := s.revoke(codepool.CodeID(req.Code))
	if err != nil {
		return 0, nil, err
	}
	s.noteMutation()
	if err := s.waitReplicated(r.Context().Done(), res.Seq); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, res, nil
}

func (s *Server) handleEpoch(_ *http.Request, _ []byte) (int, any, error) {
	info := s.epochInfo()
	s.m.epoch.SetMax(float64(info.Epoch))
	return http.StatusOK, info, nil
}

func (s *Server) handleNode(r *http.Request, _ []byte) (int, any, error) {
	idStr := r.URL.Query().Get("id")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: id %q", ErrField, idStr)
	}
	rec, ok := s.reg.get(id)
	if !ok {
		return 0, nil, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	return http.StatusOK, NodeInfo{Node: id, Codes: rec.Codes, Via: rec.Via, Tag: rec.Tag}, nil
}

func (s *Server) handleHealthz(_ *http.Request, _ []byte) (int, any, error) {
	return http.StatusOK, map[string]string{"status": "ok"}, nil
}

func (s *Server) handleMetrics(_ *http.Request, _ []byte) (int, any, error) {
	s.rc.Collect() // nil (profiling off) is a no-op
	if s.wal != nil {
		// Snapshot age is computed at scrape time so the gauge is honest
		// without a background ticker.
		age := s.cfg.now().Sub(time.Unix(0, s.lastSnapAt.Load())).Seconds()
		s.m.snapshotAge.Set(age)
	}
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, s.cfg.Metrics.Snapshot()); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, rawResponse{contentType: "text/plain; version=0.0.4", data: buf.Bytes()}, nil
}

// handleReplicate is the primary side of the replication stream: a
// follower's long-polling fetch of acknowledged WAL records after a
// sequence, with the fingerprint handshake described in replicate.go.
func (s *Server) handleReplicate(r *http.Request, _ []byte) (int, any, error) {
	if s.repl == nil || s.wal == nil {
		return 0, nil, ErrNoReplication
	}
	if s.isFollower() {
		return 0, nil, fmt.Errorf("%w: followers do not stream", ErrNotPrimary)
	}
	q := r.URL.Query()
	var after uint64
	if v := q.Get("after"); v != "" {
		var err error
		if after, err = strconv.ParseUint(v, 10, 64); err != nil {
			return 0, nil, fmt.Errorf("%w: after %q", ErrField, v)
		}
	}
	callerFP := uint64(fpBasis)
	if v := q.Get("fp"); v != "" {
		var err error
		if callerFP, err = strconv.ParseUint(v, 16, 64); err != nil {
			return 0, nil, fmt.Errorf("%w: fp %q", ErrField, v)
		}
	}
	max := 512
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return 0, nil, fmt.Errorf("%w: max %q", ErrField, v)
		}
		max = n
		if max > replMaxBatch {
			max = replMaxBatch
		}
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			return 0, nil, fmt.Errorf("%w: wait_ms %q", ErrField, v)
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > replMaxWait {
			wait = replMaxWait
		}
	}

	// Capture the broadcast channel BEFORE the first fetch: an append
	// landing between fetch and wait closes the captured channel, so the
	// long poll can never sleep through a record.
	ch := s.repl.appendChan()
	status, ents, lastSeq, snapSeq := s.repl.fetch(after, callerFP, max)
	if status == replOK {
		// A fetch carrying after=S is the follower's durable ack of every
		// record ≤ S — recorded before any long-poll wait so MinSync
		// waiters unblock immediately.
		s.repl.recordAck(r.Header.Get("X-JRSND-Follower"), after)
	}
	if status == replOK && len(ents) == 0 && wait > 0 {
		waitAppend(ch, wait)
		status, ents, lastSeq, snapSeq = s.repl.fetch(after, callerFP, max)
	}
	if status == replOK {
		s.m.replStreamed.Add(uint64(len(ents)))
	}
	return http.StatusOK, rawResponse{
		contentType: "application/octet-stream",
		data:        encodeReplResponse(status, lastSeq, snapSeq, ents),
	}, nil
}

// handleReplicateSnapshot serves the durable snapshot image a lagging or
// divergent follower bootstraps from — the same checksummed file recovery
// boots from. If no snapshot exists yet, one is taken on demand.
func (s *Server) handleReplicateSnapshot(_ *http.Request, _ []byte) (int, any, error) {
	if s.wal == nil {
		return 0, nil, ErrNoReplication
	}
	path := filepath.Join(s.dataDir, snapFileName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := s.Snapshot(); err != nil {
			return 0, nil, err
		}
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("authd: read snapshot for transfer: %w", err)
	}
	s.m.catchupSnapshots.Inc()
	return http.StatusOK, rawResponse{contentType: "application/octet-stream", data: data}, nil
}

func (s *Server) handleReplicationStatus(_ *http.Request, _ []byte) (int, any, error) {
	return http.StatusOK, s.replicationStatus(), nil
}

// handlePromote turns a follower into the primary, gated on it holding
// every sequence the caller knows was acknowledged. Idempotent on a
// server that is already primary.
func (s *Server) handlePromote(_ *http.Request, body []byte) (int, any, error) {
	if s.repl == nil || s.wal == nil {
		return 0, nil, ErrNoReplication
	}
	var req PromoteRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, nil, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
	}
	if !s.isFollower() {
		return http.StatusOK, PromoteResponse{Role: "primary", LastSeq: s.repl.lastSeq()}, nil
	}
	if last := s.repl.lastSeq(); last < req.MinSeq {
		return 0, nil, fmt.Errorf("%w: this follower holds seq %d < required %d; promoting it would lose acknowledged mutations", ErrPromotionGate, last, req.MinSeq)
	}
	if s.promoteHook != nil {
		// Stops the pull loop synchronously: after this returns no further
		// replicated record can land, so the role flip below is clean.
		s.promoteHook()
	}
	s.BecomePrimary()
	return http.StatusOK, PromoteResponse{Role: "primary", LastSeq: s.repl.lastSeq()}, nil
}

// handleReplPause toggles a follower's pull loop — the harness's
// asymmetric partition control.
func (s *Server) handleReplPause(_ *http.Request, body []byte) (int, any, error) {
	var req PauseRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, nil, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
	}
	if s.pauseHook == nil {
		return 0, nil, fmt.Errorf("%w: no replication pull loop on this server", ErrNoReplication)
	}
	s.pauseHook(req.Paused)
	return http.StatusOK, map[string]bool{"paused": req.Paused}, nil
}
