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

// ErrUnavailable: every attempt ended in a transport failure or a 5xx, so
// the server produced no definitive answer. Distinct from a structured
// refusal — the server may be restarting and the caller can retry later.
var ErrUnavailable = errors.New("authd: server unavailable")

// Client is the retrying library client for the authority service. Its
// retry loop reuses the engine's full-jitter backoff shape (core/retry.go):
// the delay before retry k is drawn uniformly from [0, BackoffBase·2^(k-1)),
// capped at backoffCap. Retries fire on transport errors, 429, and 5xx;
// structured failures (400/404/409/413) surface immediately as the typed
// errors of this package.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:7946".
	Base string
	// ClientID is sent as X-Client-ID so the server's rate limiter keys
	// on a stable identity rather than the ephemeral remote port.
	ClientID string
	// MaxAttempts bounds tries per call (first attempt included); 0 = 5.
	MaxAttempts int
	// BackoffBase scales the full-jitter delay; 0 = 50 ms.
	BackoffBase time.Duration
	// Rand drives the jitter; nil derives a source from (Base, ClientID)
	// at first use, so two clients with equal config draw identical
	// backoff schedules and tests stay reproducible without injection.
	Rand *rand.Rand

	mu sync.Mutex // guards Rand
}

// sharedTransport is the package-wide keep-alive transport every Client
// rides on. One transport means one connection pool:
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

// backoffCap bounds one retry delay.
const backoffCap = 2 * time.Second

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
	window := base << (k - 1)
	if window > backoffCap || window <= 0 {
		window = backoffCap
	}
	c.mu.Lock()
	c.ensureRandLocked()
	d := time.Duration(c.Rand.Int63n(int64(window) + 1))
	c.mu.Unlock()
	return d
}

// ensureRandLocked seeds Rand from Base‖0x00‖ClientID; caller holds mu.
func (c *Client) ensureRandLocked() {
	if c.Rand != nil {
		return
	}
	h := fnv.New64a()
	h.Write([]byte(c.Base))
	h.Write([]byte{0})
	h.Write([]byte(c.ClientID))
	c.Rand = rand.New(rand.NewSource(int64(h.Sum64())))
}

// retryable reports whether a response status deserves another attempt.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
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
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, bytes.NewReader(reqBody))
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
			lastErr, unavailable = err, true
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
		resp.Body.Close()
		if err != nil {
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
		if resp.StatusCode >= 500 {
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
