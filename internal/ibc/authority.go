package ibc

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
)

// Authority is the single MANET authority of the paper's network model. It
// owns the Blom master matrix and the signature root key and issues each
// node a PrivateKey before deployment.
type Authority struct {
	blom    *blomScheme
	rootPub ed25519.PublicKey
	rootKey ed25519.PrivateKey
	issued  map[NodeID]bool
}

// AuthorityConfig tunes authority creation.
type AuthorityConfig struct {
	// CollusionThreshold is the Blom parameter t: keys between
	// non-compromised nodes stay secret as long as at most t nodes are
	// compromised. The default (0) means 64.
	CollusionThreshold int
	// Rand supplies deterministic randomness for reproducible simulations.
	// It must be non-nil.
	Rand *rand.Rand
}

// NewAuthority creates the MANET authority.
func NewAuthority(cfg AuthorityConfig) (*Authority, error) {
	if cfg.Rand == nil {
		return nil, fmt.Errorf("ibc: AuthorityConfig.Rand must be set for reproducibility")
	}
	t := cfg.CollusionThreshold
	if t == 0 {
		t = 64
	}
	blom, err := newBlomScheme(t, cfg.Rand.Uint64)
	if err != nil {
		return nil, err
	}
	seed := make([]byte, ed25519.SeedSize)
	fillRand(cfg.Rand, seed)
	rootKey := ed25519.NewKeyFromSeed(seed)
	return &Authority{
		blom:    blom,
		rootKey: rootKey,
		rootPub: rootKey.Public().(ed25519.PublicKey),
		issued:  map[NodeID]bool{},
	}, nil
}

// RootPublicKey returns the authority's signature-verification key, which
// is preloaded into every node (it plays the role of the IBC public system
// parameters).
func (a *Authority) RootPublicKey() ed25519.PublicKey {
	out := make(ed25519.PublicKey, len(a.rootPub))
	copy(out, a.rootPub)
	return out
}

// PrivateKey is the ID-based private key K_A^{-1} issued to node A: the
// Blom private row (for non-interactive pairwise keys) plus a certified
// signing key (for ID-verifiable signatures).
//
// The signing key and its certificate are derived from the issued seed at
// the first Sign: D-NDP never signs, so most simulated nodes never pay for
// them. ed25519 is deterministic, so the bytes are those an eager Issue
// would have produced.
type PrivateKey struct {
	id      NodeID
	t       int
	blomRow []uint64

	seed    [ed25519.SeedSize]byte
	rootKey ed25519.PrivateKey // certifies the signing key; dropped once it has
	signer  sync.Once
	signKey ed25519.PrivateKey
	cert    []byte // authority signature over (id, signing public key)
}

// Issue generates the ID-based private key for id. Each ID may be issued at
// most once (re-issuing would model key escrow abuse, which the single
// authority does not do).
func (a *Authority) Issue(id NodeID, rng *rand.Rand) (*PrivateKey, error) {
	if rng == nil {
		return nil, fmt.Errorf("ibc: rng must be set")
	}
	if a.issued[id] {
		return nil, fmt.Errorf("ibc: private key for node %d already issued", id)
	}
	k := &PrivateKey{
		id:      id,
		t:       a.blom.t,
		blomRow: a.blom.privateRow(id),
		rootKey: a.rootKey,
	}
	fillRand(rng, k.seed[:]) // drawn now, so rng's stream does not depend on who signs
	a.issued[id] = true
	return k, nil
}

// certified returns the signing key and its certificate, deriving both on
// the first call.
func (k *PrivateKey) certified() (ed25519.PrivateKey, []byte) {
	k.signer.Do(func() {
		k.signKey = ed25519.NewKeyFromSeed(k.seed[:])
		k.cert = ed25519.Sign(k.rootKey, certPayload(k.id, k.signKey.Public().(ed25519.PublicKey)))
		k.rootKey = nil
	})
	return k.signKey, k.cert
}

// ID returns the node ID the key was issued for.
func (k *PrivateKey) ID() NodeID { return k.id }

// SharedKey computes the pairwise key K_AB with peer non-interactively.
// SharedKey is symmetric: a.SharedKey(b.ID()) == b.SharedKey(a.ID()).
func (k *PrivateKey) SharedKey(peer NodeID) [32]byte {
	return kdf(sharedScalar(k.blomRow, peer, k.t), k.id, peer)
}

func certPayload(id NodeID, pub ed25519.PublicKey) []byte {
	buf := make([]byte, 2+len(pub))
	binary.BigEndian.PutUint16(buf[:2], uint16(id))
	copy(buf[2:], pub)
	return buf
}

func fillRand(rng *rand.Rand, buf []byte) {
	for i := 0; i < len(buf); i += 8 {
		var w [8]byte
		binary.BigEndian.PutUint64(w[:], rng.Uint64())
		copy(buf[i:], w[:])
	}
}
