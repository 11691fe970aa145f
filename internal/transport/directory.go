package transport

import (
	"context"
	"sync"

	"repro/internal/authd"
)

// AuthorityDirectory resolves handshake keys from a running
// jrsnd-authority: GET /v1/node returns the code assignment the authority
// recorded for a deployment slot, and NodeKey compresses it to the
// handshake key. Resolutions are cached forever — an assignment is
// immutable for the life of an epoch, and the daemons of one deployment
// share one epoch.
type AuthorityDirectory struct {
	client *authd.Client

	mu    sync.Mutex
	cache map[int][]byte
}

var _ Directory = (*AuthorityDirectory)(nil)

// NewAuthorityDirectory wraps an authority client (which carries its own
// retry policy) as a Directory.
func NewAuthorityDirectory(client *authd.Client) *AuthorityDirectory {
	return &AuthorityDirectory{client: client, cache: map[int][]byte{}}
}

// NodeKey returns the handshake key for node, consulting the authority on
// a cache miss.
func (d *AuthorityDirectory) NodeKey(ctx context.Context, node int) ([]byte, error) {
	d.mu.Lock()
	key, ok := d.cache[node]
	d.mu.Unlock()
	if ok {
		return key, nil
	}
	info, err := d.client.Node(ctx, node)
	if err != nil {
		return nil, err
	}
	key = NodeKey(info.Node, info.Codes)
	d.mu.Lock()
	d.cache[node] = key
	d.mu.Unlock()
	return key, nil
}
