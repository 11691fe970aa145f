package authd

import (
	"hash/fnv"
	"sync"
	"time"
)

// Per-client token-bucket rate limiting, the defense pattern of
// internal/core/defense.go lifted from virtual to wall-clock time: each
// client (keyed by the X-Client-ID header, falling back to the remote
// host) owns a bucket of depth Burst refilling at Rate tokens/s, and a
// mutating request that finds the bucket empty is refused with 429.
// Buckets live in the same shard layout as the registry so hot clients
// on different shards never contend, and idle buckets are swept once a
// shard grows past a bound — the limiter's memory is O(active clients),
// not O(every client ever seen).

// sweepAt is the per-shard bucket count that triggers an idle sweep.
const sweepAt = 4096

type bucket struct {
	tokens float64
	last   time.Time
}

type limShard struct {
	mu      sync.Mutex
	buckets map[string]*bucket
}

type limiter struct {
	shards []limShard
	rate   float64
	burst  float64
	now    func() time.Time
}

func newLimiter(shards int, rate float64, burst int, now func() time.Time) *limiter {
	l := &limiter{
		shards: make([]limShard, shards), //jrsnd:allow boundedalloc shards is derived by New from GOMAXPROCS, never operator input or a wire-decoded count
		rate:   rate,
		burst:  float64(burst),
		now:    now,
	}
	for i := range l.shards {
		l.shards[i].buckets = make(map[string]*bucket)
	}
	return l
}

func (l *limiter) shard(client string) *limShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(client))
	return &l.shards[int(h.Sum32())%len(l.shards)]
}

// allow refills client's bucket by elapsed wall time and spends one
// token if available.
func (l *limiter) allow(client string) bool {
	now := l.now()
	sh := l.shard(client)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.buckets[client]
	if b == nil {
		if len(sh.buckets) >= sweepAt {
			l.sweepLocked(sh, now)
		}
		b = &bucket{tokens: l.burst, last: now}
		sh.buckets[client] = b
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
func (l *limiter) sweepLocked(sh *limShard, now time.Time) {
	full := time.Duration(l.burst / l.rate * float64(time.Second))
	for key, b := range sh.buckets {
		if now.Sub(b.last) >= full {
			delete(sh.buckets, key)
		}
	}
}
