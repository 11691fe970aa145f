package authd

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/codepool"
)

// Assignment registry: every node's assignment record in one map behind
// one mutex. Inserts happen once per provisioned or joined node and every
// mutator already holds poolMu, so the table is never the bottleneck; its
// lock only orders inserts against GET /v1/node lookups.

// record is one node's assignment as the authority remembers it.
type record struct {
	Codes []codepool.CodeID
	Tag   string
	Via   string // "provision" or "join"
	At    time.Time
}

type registry struct {
	mu    sync.RWMutex
	nodes map[int]record
}

func newRegistry() *registry {
	return &registry{nodes: make(map[int]record)}
}

// insert records node's assignment exactly once. A second insert for the
// same node is the double-assignment bug the concurrency suite hunts for,
// surfaced as an error rather than silently overwritten.
func (r *registry) insert(node int, rec record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return fmt.Errorf("authd: node %d assigned twice", node)
	}
	r.nodes[node] = rec
	return nil
}

// get returns node's assignment record.
func (r *registry) get(node int) (record, bool) {
	if node < 0 {
		return record{}, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.nodes[node]
	return rec, ok
}

// regEntry pairs a node ID with its record for dumps.
type regEntry struct {
	Node int
	Rec  record
}

// dump copies every record, sorted by node ID — the canonical order the
// durability snapshot encodes. Callers needing a cut consistent with the
// rest of the state (the snapshot path) hold the server's poolMu write
// lock, which every mutator reads.
func (r *registry) dump() []regEntry {
	r.mu.RLock()
	out := make([]regEntry, 0, len(r.nodes))
	for node, rec := range r.nodes {
		out = append(out, regEntry{Node: node, Rec: rec})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// count returns the number of records.
func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}
