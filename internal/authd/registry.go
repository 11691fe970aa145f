package authd

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/codepool"
)

// Sharded assignment registry: mutable per-node state lives in S shards,
// each behind its own mutex, so concurrent provisions and joins on
// different nodes never contend. Node IDs are dense integers, so the
// shard function is node modulo the shard count, which New derives from
// GOMAXPROCS.

// record is one node's assignment as the authority remembers it.
type record struct {
	Codes []codepool.CodeID
	Tag   string
	Via   string // "provision" or "join"
	At    time.Time
}

type regShard struct {
	mu    sync.RWMutex
	nodes map[int]record
}

type registry struct {
	shards []regShard
}

func newRegistry(shards int) *registry {
	r := &registry{shards: make([]regShard, shards)} //jrsnd:allow boundedalloc shards is derived by New from GOMAXPROCS, never operator input or a wire-decoded count
	for i := range r.shards {
		r.shards[i].nodes = make(map[int]record)
	}
	return r
}

func (r *registry) shard(node int) *regShard {
	return &r.shards[node%len(r.shards)]
}

// insert records node's assignment exactly once. A second insert for the
// same node is the double-assignment bug the concurrency suite hunts for,
// surfaced as an error rather than silently overwritten.
func (r *registry) insert(node int, rec record) error {
	sh := r.shard(node)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.nodes[node]; ok {
		return fmt.Errorf("authd: node %d assigned twice", node)
	}
	sh.nodes[node] = rec
	return nil
}

// get returns node's assignment record.
func (r *registry) get(node int) (record, bool) {
	if node < 0 {
		return record{}, false
	}
	sh := r.shard(node)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.nodes[node]
	return rec, ok
}

// regEntry pairs a node ID with its record for dumps.
type regEntry struct {
	Node int
	Rec  record
}

// dump copies every record, sorted by node ID — the canonical order the
// durability snapshot encodes. Shards are locked one at a time; callers
// needing a consistent cut across shards (the snapshot path) hold the
// server's poolMu write lock, which every mutator reads.
func (r *registry) dump() []regEntry {
	out := make([]regEntry, 0, r.count()) //jrsnd:allow boundedalloc sized by our own shard maps (every entry passed the decode limits on insert), not by untrusted wire input
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for node, rec := range sh.nodes {
			out = append(out, regEntry{Node: node, Rec: rec})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// count sums the per-shard record counts.
func (r *registry) count() int {
	total := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		total += len(sh.nodes)
		sh.mu.RUnlock()
	}
	return total
}
