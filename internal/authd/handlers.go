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
// of the acknowledged mutation (0 on an in-memory server).
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

// rawResponse bypasses JSON marshaling (the /metrics exposition).
type rawResponse struct {
	contentType string
	data        []byte
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

func (s *Server) handleProvision(_ *http.Request, body []byte) (int, any, error) {
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
	return http.StatusOK, ProvisionResponse{Nodes: nodes, Epoch: s.Epoch(), Seq: seq}, nil
}

func (s *Server) handleJoin(_ *http.Request, body []byte) (int, any, error) {
	req, err := DecodeJoinRequest(body, s.lim)
	if err != nil {
		return 0, nil, err
	}
	a, expanded, seq, err := s.join(req.Tag)
	if err != nil {
		return 0, nil, err
	}
	s.noteMutation()
	epoch := s.Epoch()
	s.m.epoch.SetMax(float64(epoch))
	return http.StatusOK, JoinResponse{Node: a.Node, Codes: a.Codes, Epoch: epoch, Expanded: expanded, Seq: seq}, nil
}

func (s *Server) handleRevoke(_ *http.Request, body []byte) (int, any, error) {
	req, err := DecodeRevokeRequest(body, s.lim)
	if err != nil {
		return 0, nil, err
	}
	res, err := s.revoke(codepool.CodeID(req.Code))
	if err != nil {
		return 0, nil, err
	}
	s.noteMutation()
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
