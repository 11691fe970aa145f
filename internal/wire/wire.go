// Package wire is the canonical binary codec for every JR-SND protocol
// message. Before this layer existed, in-sim deliveries carried in-memory
// Go structs, so an entire class of adversarial inputs — truncated frames,
// oversized neighbor lists, bit-flipped payloads, replayed byte sequences —
// was unrepresentable. Routing every delivery through encode→decode makes
// hostile bytes a reachable state: the decoder is strictly bounded (every
// variable-length field is capped by Limits before any allocation), the
// encoding is canonical (one byte sequence per message, so round-trips are
// byte-identical and replay detection can key on content), and decode
// failures surface as a typed error taxonomy (ErrTruncated, ErrOverflow,
// ErrBadKind) instead of panics.
//
// Frame layout (all integers big-endian):
//
//	byte 0      version (currently 1)
//	byte 1      kind (KindHello … KindSessionConfirm)
//	bytes 2..5  uint32 body length
//	bytes 6..   body (per-kind payload encoding)
//
// Variable-length byte fields (nonces, MACs, signature components) are
// uint16-length-prefixed; ID lists are uint16-count-prefixed; hop lists are
// uint8-count-prefixed. The decoder copies every field out of the frame
// buffer — a decoded payload never aliases the input, so a Byzantine
// sender mutating its transmit buffer after the fact cannot corrupt
// receiver state.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ibc"
)

// Version is the frame format version emitted by Encode.
const Version = 1

// Message kinds, the frame's kind byte. The protocol engine and the
// adversaries use these constants directly; internal/radio carries them
// as plain ints.
const (
	KindHello = iota + 1
	KindConfirm
	KindAuth1
	KindAuth2
	KindMNDPRequest
	KindMNDPResponse
	KindSessionHello
	KindSessionConfirm
	numKinds = KindSessionConfirm
)

// Typed decode-error taxonomy. Every decode failure wraps exactly one of
// these, so callers (and fuzz targets) can classify hostile inputs.
var (
	// ErrTruncated: the frame ends before a declared field does.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrOverflow: a declared length exceeds its Limits cap, the frame
	// exceeds MaxFrame, or trailing bytes follow the payload.
	ErrOverflow = errors.New("wire: field exceeds limit")
	// ErrBadKind: unknown message kind, unsupported version, or a field
	// holding a value outside its domain (e.g. a bool byte that is not 0/1).
	ErrBadKind = errors.New("wire: bad kind or malformed field")
)

// MaxSigComponent caps each signature component (public key, certificate,
// signature bytes) — ed25519 needs 32/64/64.
const MaxSigComponent = 128

// Limits bounds every variable-length field the decoder will allocate for.
// A frame declaring anything larger is rejected with ErrOverflow before
// allocation, so hostile length prefixes cannot drive memory use.
type Limits struct {
	// MaxFrame is the total frame size in bytes.
	MaxFrame int
	// MaxNonce caps nonce fields (bytes).
	MaxNonce int
	// MaxMAC caps MAC fields (bytes).
	MaxMAC int
	// MaxSigField caps each signature component (bytes).
	MaxSigField int
	// MaxNeighbors caps IDs per neighbor list.
	MaxNeighbors int
	// MaxHops caps hop records per request/response and return-route length.
	MaxHops int
}

// Validate rejects unusable limit sets.
func (l Limits) Validate() error {
	switch {
	case l.MaxFrame < 8:
		return fmt.Errorf("wire: MaxFrame %d too small", l.MaxFrame)
	case l.MaxNonce < 1, l.MaxMAC < 1, l.MaxSigField < 1:
		return fmt.Errorf("wire: byte-field caps must be >= 1 (nonce %d, mac %d, sig %d)",
			l.MaxNonce, l.MaxMAC, l.MaxSigField)
	case l.MaxNeighbors < 1 || l.MaxNeighbors > 1<<16:
		return fmt.Errorf("wire: MaxNeighbors %d outside [1, 65536]", l.MaxNeighbors)
	case l.MaxHops < 1 || l.MaxHops > 255:
		return fmt.Errorf("wire: MaxHops %d outside [1, 255]", l.MaxHops)
	}
	return nil
}

// DefaultLimits returns permissive caps for tooling and fuzzing.
func DefaultLimits() Limits {
	return Limits{
		MaxFrame:     1 << 20,
		MaxNonce:     64,
		MaxMAC:       64,
		MaxSigField:  MaxSigComponent,
		MaxNeighbors: 4096,
		MaxHops:      32,
	}
}

// LimitsFromParams derives hard caps from the Table I parameter set: nonce
// and MAC caps are the exact field widths, neighbor lists are capped at a
// multiple of the deployment size (late joins grow the network), and hop
// lists at a multiple of the ν hop budget. MaxFrame is the worst-case
// honest frame under those caps plus headroom.
func LimitsFromParams(p analysis.Params) Limits {
	l := Limits{
		MaxNonce:    (p.LenNonce + 7) / 8,
		MaxMAC:      (p.LenMAC + 7) / 8,
		MaxSigField: MaxSigComponent,
	}
	l.MaxNeighbors = 4 * p.N
	if l.MaxNeighbors < 64 {
		l.MaxNeighbors = 64
	}
	if l.MaxNeighbors > 1<<16 {
		l.MaxNeighbors = 1 << 16
	}
	l.MaxHops = 2*p.Nu + 2
	if l.MaxHops < 8 {
		l.MaxHops = 8
	}
	if l.MaxHops > 255 {
		l.MaxHops = 255
	}
	// Worst-case body: MaxHops hop records, each with a full neighbor list
	// and three signature components, plus fixed fields and slack.
	hopBytes := 2 + (2 + 2*l.MaxNeighbors) + (2 + 3*(2+l.MaxSigField))
	l.MaxFrame = 6 + l.MaxHops*hopBytes + 2*(2+l.MaxNonce) + 64
	return l
}

// PayloadBits is the paper's pre-ECC size in bits of a message, computed
// from the Table I field widths (the medium turns it into airtime as
// (1+μ)·bits·N/R):
//
//	HELLO, CONFIRM, SESS-HELLO, SESS-CONFIRM  l_t + l_id
//	AUTH1, AUTH2                              l_id + l_n + l_mac
//	MNDP-REQ                                  l_n + l_ν + Σ_hops (l_id + |ℒ|·l_id + l_sig)
//	MNDP-RESP                                 2·l_n + l_ν + l_id + Σ_hops (l_id + |ℒ|·l_id + l_sig)
//
// The size depends only on the payload's type and hop records, so AUTH1
// and AUTH2 (both Auth) and the two session messages (both Session) need
// no kind. A value of any other type has no size: 0.
func PayloadBits(p analysis.Params, payload any) int {
	hops := func(hs []Hop) int {
		bits := 0
		for _, h := range hs {
			bits += p.LenID + len(h.Neighbors)*p.LenID + p.LenSig
		}
		return bits
	}
	switch m := payload.(type) {
	case Hello, Confirm, Session:
		return p.LenType + p.LenID
	case Auth:
		return p.LenID + p.LenNonce + p.LenMAC
	case MNDPRequest:
		return p.LenNonce + p.LenNu + hops(m.Hops)
	case MNDPResponse:
		return 2*p.LenNonce + p.LenNu + p.LenID + hops(m.Path)
	default:
		return 0
	}
}

// Hello is the D-NDP HELLO: {HELLO, ID_A}, spread with one of A's pool
// codes.
type Hello struct {
	Initiator ibc.NodeID
}

// Confirm is the D-NDP CONFIRM: {CONFIRM, ID_B} addressed to the
// initiator, spread with a code shared with it.
type Confirm struct {
	Responder ibc.NodeID
	Initiator ibc.NodeID
}

// Auth carries the two mutual-authentication messages: {ID, n, f_K(ID|n)}.
type Auth struct {
	Sender ibc.NodeID
	Peer   ibc.NodeID
	Nonce  []byte
	MAC    []byte
}

// Hop is one signed hop record in an M-NDP request or response: the node's
// ID, its logical-neighbor list, and its signature over the message so far.
type Hop struct {
	ID        ibc.NodeID
	Neighbors []ibc.NodeID
	Sig       ibc.Signature
}

// MNDPRequest is the M-NDP request of §V-C. Hops[0] is the origin; each
// forwarder appends itself. Nu bounds the total hops the request may
// traverse.
type MNDPRequest struct {
	Nonce []byte
	Nu    int
	Hops  []Hop
	// OriginPos carries the origin's claimed position for the optional GPS
	// false-positive filter. Units: meters.
	OriginPosX, OriginPosY float64
	HasOriginPos           bool
}

// MNDPResponse travels back along the request path to the origin.
// Path[0] is the responder; intermediate nodes append themselves.
// ReturnRoute holds the remaining relay IDs toward the origin, innermost
// next hop last.
type MNDPResponse struct {
	Origin      ibc.NodeID
	Nonce       []byte // responder's nonce n_B
	OriginNonce []byte // echoed origin nonce n_A
	Nu          int
	Path        []Hop
	ReturnRoute []ibc.NodeID
}

// Session completes M-NDP: HELLO/CONFIRM spread with the derived session
// code.
type Session struct {
	Sender ibc.NodeID
	Peer   ibc.NodeID
}

// KindName names a message kind for traces and errors.
func KindName(kind int) string {
	switch kind {
	case KindHello:
		return "HELLO"
	case KindConfirm:
		return "CONFIRM"
	case KindAuth1:
		return "AUTH1"
	case KindAuth2:
		return "AUTH2"
	case KindMNDPRequest:
		return "MNDP-REQ"
	case KindMNDPResponse:
		return "MNDP-RESP"
	case KindSessionHello:
		return "SESS-HELLO"
	case KindSessionConfirm:
		return "SESS-CONFIRM"
	default:
		return "UNKNOWN"
	}
}
