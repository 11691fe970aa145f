package authd

import (
	"sync"
	"time"
)

// Per-client token-bucket rate limiting, the defense pattern of
// internal/core/defense.go lifted from virtual to wall-clock time: each
// client (keyed by the X-Client-ID header, falling back to the remote
// host) owns a bucket of depth Burst refilling at Rate tokens/s, and a
// mutating request that finds the bucket empty is refused with 429.
// Buckets live in one map behind one mutex, and idle buckets are swept
// once the map grows past a bound — the limiter's memory is O(active
// clients), not O(every client ever seen).

// sweepAt is the bucket count that triggers an idle sweep.
const sweepAt = 4096

type bucket struct {
	tokens float64
	last   time.Time
}

type limiter struct {
	mu      sync.Mutex
	buckets map[string]*bucket
	rate    float64
	burst   float64
	now     func() time.Time
}

func newLimiter(rate float64, burst int, now func() time.Time) *limiter {
	return &limiter{
		buckets: make(map[string]*bucket),
		rate:    rate,
		burst:   float64(burst),
		now:     now,
	}
}

// allow refills client's bucket by elapsed wall time and spends one
// token if available.
func (l *limiter) allow(client string) bool {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[client]
	if b == nil {
		if len(l.buckets) >= sweepAt {
			l.sweepLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	}
	if now.After(b.last) {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// sweepLocked drops buckets that have been idle long enough to refill
// completely — indistinguishable from a fresh bucket, so dropping them
// cannot grant extra tokens.
func (l *limiter) sweepLocked(now time.Time) {
	full := time.Duration(l.burst / l.rate * float64(time.Second))
	for key, b := range l.buckets {
		if now.Sub(b.last) >= full {
			delete(l.buckets, key)
		}
	}
}
