package authd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ErrUnavailable: every configured endpoint was tried and none produced a
// definitive answer (transport failures, 5xx, or not-primary redirects all
// the way down). Distinct from a structured refusal — the caller may be
// mid-failover and can retry later.
var ErrUnavailable = errors.New("authd: no replica available")

// Client is the retrying library client for the authority service. Its
// retry loop reuses the engine's full-jitter backoff shape (core/retry.go):
// the delay before retry k is drawn uniformly from [0, BackoffBase·2^(k-1)),
// capped at BackoffCap. Retries fire on transport errors, 429, and 5xx;
// structured failures (400/404/409/413) surface immediately as the typed
// errors of this package.
//
// Failover: with Endpoints set, the client walks a deterministic seeded
// permutation of the replica set, rotating to the next endpoint on a
// transport error or 5xx. A 421 (ErrNotPrimary) from a follower carries
// the X-JRSND-Primary hint, which the client pins for its next attempt —
// so a mutation sent to a follower lands on the primary one retry later.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:7946".
	// Ignored when Endpoints is set.
	Base string
	// Endpoints lists every replica's base URL. When non-empty the client
	// fails over across them; reads are served by whichever endpoint
	// answers, mutations follow 421 redirects to the primary.
	Endpoints []string
	// ClientID is sent as X-Client-ID so the server's rate limiter keys
	// on a stable identity rather than the ephemeral remote port.
	ClientID string
	// MaxAttempts bounds tries per call (first attempt included); 0 = 5.
	MaxAttempts int
	// BackoffBase scales the full-jitter delay; 0 = 50 ms.
	BackoffBase time.Duration
	// BackoffCap bounds one delay; 0 = 2 s.
	BackoffCap time.Duration
	// Rand drives the jitter and the endpoint probe order; nil derives a
	// source from (endpoints, ClientID) at first use, so two clients with
	// equal config draw identical backoff schedules and probe orders and
	// tests stay reproducible without injection.
	Rand *rand.Rand

	mu       sync.Mutex // guards Rand, order, cur, override
	order    []int      // seeded permutation of Endpoints
	cur      int        // index into order
	override string     // primary hint pinned from a 421 redirect
}

// sharedTransport is the package-wide keep-alive transport every Client
// and Follower rides on. One transport means one connection pool:
// sequential requests to the same authority reuse a warm TCP connection
// instead of re-dialing per call (the stdlib default of 2 idle conns per
// host collapses under the loadgen's 8 workers and understates service
// throughput).
var sharedTransport = &http.Transport{
	Proxy:               http.ProxyFromEnvironment,
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// sharedHTTPClient pairs the shared transport with the default request
// timeout; http.Client is stateless beyond its transport, so one instance
// serves every Client concurrently.
var sharedHTTPClient = &http.Client{
	Timeout:   10 * time.Second,
	Transport: sharedTransport,
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 5
}

// jitter draws the full-jitter delay before retry k (k = 1 first retry).
func (c *Client) jitter(k int) time.Duration {
	base := c.BackoffBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	cap := c.BackoffCap
	if cap <= 0 {
		cap = 2 * time.Second
	}
	window := base << (k - 1)
	if window > cap || window <= 0 {
		window = cap
	}
	c.mu.Lock()
	c.ensureRandLocked()
	d := time.Duration(c.Rand.Int63n(int64(window) + 1))
	c.mu.Unlock()
	return d
}

// ensureRandLocked seeds Rand from (endpoints, ClientID); caller holds mu.
func (c *Client) ensureRandLocked() {
	if c.Rand != nil {
		return
	}
	h := fnv.New64a()
	h.Write([]byte(c.Base))
	for _, ep := range c.Endpoints {
		h.Write([]byte{0})
		h.Write([]byte(ep))
	}
	h.Write([]byte{0})
	h.Write([]byte(c.ClientID))
	c.Rand = rand.New(rand.NewSource(int64(h.Sum64())))
}

// currentBase picks the URL for the next attempt: a pinned primary hint
// wins; otherwise the current position in the seeded permutation of
// Endpoints; otherwise Base.
func (c *Client) currentBase() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.override != "" {
		return c.override
	}
	if len(c.Endpoints) == 0 {
		return c.Base
	}
	if len(c.order) != len(c.Endpoints) {
		c.ensureRandLocked()
		c.order = c.Rand.Perm(len(c.Endpoints))
		c.cur = 0
	}
	return c.Endpoints[c.order[c.cur]]
}

// rotate abandons the endpoint that just failed: a failed pinned hint is
// dropped back to the permutation; otherwise the permutation advances.
func (c *Client) rotate(failed string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.override != "" {
		if c.override == failed {
			c.override = ""
		}
		return
	}
	if len(c.order) > 0 {
		c.cur = (c.cur + 1) % len(c.order)
	}
}

// pin records the primary hint from a 421 redirect for the next attempt.
func (c *Client) pin(primary string) {
	c.mu.Lock()
	c.override = primary
	c.mu.Unlock()
}

// retryable reports whether a response status deserves another attempt.
// 421 retries because the client re-aims at the hinted primary.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusMisdirectedRequest ||
		status >= 500
}

// apiError converts a non-2xx response into the typed taxonomy.
func apiError(status int, body []byte) error {
	var eb errorBody
	msg := string(bytes.TrimSpace(body))
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	switch status {
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", ErrExhausted, msg)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w: %s", ErrRateLimited, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, msg)
	case http.StatusRequestEntityTooLarge:
		return fmt.Errorf("%w: %s", ErrTooLarge, msg)
	case http.StatusBadRequest:
		return fmt.Errorf("%w: %s", ErrField, msg)
	case http.StatusMisdirectedRequest:
		return fmt.Errorf("%w: %s", ErrNotPrimary, msg)
	default:
		return fmt.Errorf("authd: server status %d: %s", status, msg)
	}
}

// do runs one call with retries: POST with a JSON body when in != nil,
// GET otherwise; the 2xx response body is decoded into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var reqBody []byte
	if in != nil {
		var err error
		reqBody, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("authd: encode request: %w", err)
		}
	}
	var lastErr error
	unavailable := false
	for attempt := 1; attempt <= c.attempts(); attempt++ {
		if attempt > 1 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.jitter(attempt - 1)): //jrsnd:allow wallclock real sleep between retries against a live HTTP server; never runs under the simulator
			}
		}
		base := c.currentBase()
		req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(reqBody))
		if err != nil {
			return fmt.Errorf("authd: build request: %w", err)
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.ClientID != "" {
			req.Header.Set("X-Client-ID", c.ClientID)
		}
		resp, err := sharedHTTPClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Transport failure: this replica may be dead; try the next.
			c.rotate(base)
			lastErr, unavailable = err, true
			continue
		}
		hint := resp.Header.Get("X-JRSND-Primary")
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
		resp.Body.Close()
		if err != nil {
			c.rotate(base)
			lastErr, unavailable = err, true
			continue
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(body, out); err != nil {
				return fmt.Errorf("authd: decode response: %w", err)
			}
			return nil
		}
		lastErr = apiError(resp.StatusCode, body)
		if !retryable(resp.StatusCode) {
			return lastErr
		}
		switch {
		case resp.StatusCode == http.StatusMisdirectedRequest:
			// A follower refused the mutation. Pin its primary hint; with
			// no hint, walk the permutation until the primary turns up.
			unavailable = true
			if hint != "" {
				c.pin(hint)
			} else {
				c.rotate(base)
			}
		case resp.StatusCode >= 500:
			c.rotate(base)
			unavailable = true
		}
	}
	if unavailable {
		return fmt.Errorf("%w: %d attempts exhausted: %v", ErrUnavailable, c.attempts(), lastErr)
	}
	return fmt.Errorf("authd: %d attempts exhausted: %w", c.attempts(), lastErr)
}

// Provision claims count deployment slots. ErrExhausted (wrapped) means
// the deployment is fully provisioned and the caller should Join instead.
func (c *Client) Provision(ctx context.Context, count int, tag string) (ProvisionResponse, error) {
	var out ProvisionResponse
	err := c.do(ctx, http.MethodPost, "/v1/provision", ProvisionRequest{Count: count, Tag: tag}, &out)
	return out, err
}

// Join admits one late node (§V-A).
func (c *Client) Join(ctx context.Context, tag string) (JoinResponse, error) {
	var out JoinResponse
	err := c.do(ctx, http.MethodPost, "/v1/join", JoinRequest{Tag: tag}, &out)
	return out, err
}

// Revoke reports one invalid request under code (§V-D).
func (c *Client) Revoke(ctx context.Context, code int32) (RevokeResult, error) {
	var out RevokeResult
	err := c.do(ctx, http.MethodPost, "/v1/revoke", RevokeRequest{Code: code}, &out)
	return out, err
}

// Epoch fetches the distribution-state counters.
func (c *Client) Epoch(ctx context.Context) (EpochInfo, error) {
	var out EpochInfo
	err := c.do(ctx, http.MethodGet, "/v1/epoch", nil, &out)
	return out, err
}

// Node fetches one node's assignment record.
func (c *Client) Node(ctx context.Context, id int) (NodeInfo, error) {
	var out NodeInfo
	err := c.do(ctx, http.MethodGet, "/v1/node?id="+strconv.Itoa(id), nil, &out)
	return out, err
}

// Healthz probes liveness (no retries beyond the usual loop).
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
