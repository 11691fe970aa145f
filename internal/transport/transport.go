// Package transport carries JR-SND's canonical internal/wire frames over
// UDP datagrams between authenticated peers, so the D-NDP/M-NDP byte
// formats cross real network interfaces — loopback for the multi-process
// e2e harness, a LAN segment for cluster experiments.
//
// The pieces:
//
//   - Endpoint (endpoint.go) owns one UDP socket: a pooled, bounded read
//     loop; a peer manager in the ProtocolManager style (registration
//     capped at MaxPeers, per-peer send loops over bounded queues,
//     broadcast fan-out, idle-peer reaping with a clean removePeer);
//     and the datagram dispatch that counts — never trusts — malformed
//     input.
//   - the handshake (handshake.go) authenticates a peer's code-slot
//     identity: the key is derived from the code set the jrsnd-authority
//     provisioned for that node ID, so two daemons provisioned by the
//     same authority admit each other and everything else is dropped.
//
// The cmd/jrsnd-node daemon drives an Endpoint directly; the protocol
// engine (internal/core) runs only on the simulated radio.Medium.
//
// Datagram layout (all integers big-endian):
//
//	byte 0..1   magic "JR"
//	byte 2      transport version (currently 1)
//	byte 3      kind (dgHello … dgBye)
//	byte 4..7   uint32 sender node ID
//	byte 8..    per-kind body
//
// dgFrame bodies are wire frames verbatim — the transport does not parse
// them beyond bounding their length at the wire.DefaultLimits frame cap;
// the consumer's wire.Decode is the only parser, exactly as on the
// simulated path.
// Handshake bodies are uint16-length-prefixed byte fields, each capped
// before allocation, in the bounded-decode discipline of internal/wire.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Version is the transport envelope version emitted by this package.
const Version = 1

// envelope header: "JR" + version + kind + uint32 sender.
const headerLen = 8

// Datagram kinds.
const (
	dgHello    = iota + 1 // handshake initiation: nonce + code-slot MAC
	dgAck                 // handshake completion: echoed nonce + responder MAC
	dgFrame               // one canonical wire frame
	dgPing                // keepalive probe
	dgPong                // keepalive answer
	dgBye                 // graceful leave: remove me now, don't wait for the reaper
	numDgKinds = dgBye
)

// dgKindName names a datagram kind for traces and errors.
func dgKindName(kind int) string {
	switch kind {
	case dgHello:
		return "HELLO"
	case dgAck:
		return "ACK"
	case dgFrame:
		return "FRAME"
	case dgPing:
		return "PING"
	case dgPong:
		return "PONG"
	case dgBye:
		return "BYE"
	default:
		return "UNKNOWN"
	}
}

// Decode-error taxonomy, mirroring internal/wire: every hostile datagram
// dies with exactly one of these and a bumped drop counter.
var (
	// ErrTruncated: the datagram ends before a declared field does.
	ErrTruncated = errors.New("transport: truncated datagram")
	// ErrOverflow: a declared length exceeds its cap, or the datagram
	// exceeds the maximum size for the wire limits.
	ErrOverflow = errors.New("transport: field exceeds limit")
	// ErrBadKind: wrong magic, unsupported version, or unknown kind.
	ErrBadKind = errors.New("transport: bad magic, version, or kind")
)

// Handshake field caps. Senders emit nonceSize/macSize exactly; the
// decoder accepts up to the max so future versions can grow the fields
// without a flag day, but never allocates past the cap.
const (
	nonceSize    = 16
	macSize      = 32 // HMAC-SHA256
	maxNonceWire = 64
	maxMACWire   = 64
)

// maxDatagram returns the largest datagram the endpoint will read or
// send under the given wire limits: the envelope header plus the largest
// body (a full wire frame), capped at the UDP payload ceiling.
func maxDatagram(l wire.Limits) int {
	const udpMax = 65507
	n := headerLen + l.MaxFrame
	if n > udpMax {
		n = udpMax
	}
	return n
}

// envelope is one decoded datagram header; body aliases the receive
// buffer and must be copied before it escapes the dispatch call.
type envelope struct {
	kind   int
	sender int
	body   []byte
}

// encodeEnvelope prepends the transport header to body.
func encodeEnvelope(kind, sender int, body []byte) []byte {
	out := make([]byte, headerLen+len(body))
	out[0], out[1] = 'J', 'R'
	out[2] = Version
	out[3] = byte(kind)
	binary.BigEndian.PutUint32(out[4:8], uint32(sender))
	copy(out[headerLen:], body)
	return out
}

// decodeEnvelope validates the header and returns the envelope; the body
// aliases data.
func decodeEnvelope(data []byte) (envelope, error) {
	if len(data) < headerLen {
		return envelope{}, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(data))
	}
	if data[0] != 'J' || data[1] != 'R' {
		return envelope{}, fmt.Errorf("%w: magic %q", ErrBadKind, data[:2])
	}
	if data[2] != Version {
		return envelope{}, fmt.Errorf("%w: version %d", ErrBadKind, data[2])
	}
	kind := int(data[3])
	if kind < dgHello || kind > numDgKinds {
		return envelope{}, fmt.Errorf("%w: kind %d", ErrBadKind, kind)
	}
	return envelope{
		kind:   kind,
		sender: int(binary.BigEndian.Uint32(data[4:8])),
		body:   data[headerLen:],
	}, nil
}

// putField appends one uint16-length-prefixed byte field.
func putField(buf []byte, field []byte) []byte {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(field)))
	return append(append(buf, l[:]...), field...)
}

// getField consumes one uint16-length-prefixed byte field, copying it out
// of the datagram buffer, with the declared length capped before the
// allocation.
func getField(data []byte, cap int) (field, rest []byte, err error) {
	if len(data) < 2 {
		return nil, nil, fmt.Errorf("%w: field length prefix", ErrTruncated)
	}
	n := int(binary.BigEndian.Uint16(data))
	if n > cap {
		return nil, nil, fmt.Errorf("%w: field of %d bytes (cap %d)", ErrOverflow, n, cap)
	}
	if len(data) < 2+n {
		return nil, nil, fmt.Errorf("%w: field of %d bytes, %d remain", ErrTruncated, n, len(data)-2)
	}
	field = make([]byte, n)
	copy(field, data[2:2+n])
	return field, data[2+n:], nil
}

// helloBody is the dgHello payload: {nonce, MAC over the hs1 transcript}.
type helloBody struct {
	Nonce []byte
	MAC   []byte
}

func encodeHello(h helloBody) []byte {
	buf := make([]byte, 0, 4+len(h.Nonce)+len(h.MAC))
	buf = putField(buf, h.Nonce)
	return putField(buf, h.MAC)
}

func decodeHello(data []byte) (helloBody, error) {
	var h helloBody
	var err error
	if h.Nonce, data, err = getField(data, maxNonceWire); err != nil {
		return helloBody{}, err
	}
	if h.MAC, data, err = getField(data, maxMACWire); err != nil {
		return helloBody{}, err
	}
	if len(data) != 0 {
		return helloBody{}, fmt.Errorf("%w: %d trailing bytes", ErrOverflow, len(data))
	}
	return h, nil
}

// ackBody is the dgAck payload: the echoed initiator nonce, the
// responder's own nonce, and the MAC over the hs2 transcript.
type ackBody struct {
	Echo  []byte
	Nonce []byte
	MAC   []byte
}

func encodeAck(a ackBody) []byte {
	buf := make([]byte, 0, 6+len(a.Echo)+len(a.Nonce)+len(a.MAC))
	buf = putField(buf, a.Echo)
	buf = putField(buf, a.Nonce)
	return putField(buf, a.MAC)
}

func decodeAck(data []byte) (ackBody, error) {
	var a ackBody
	var err error
	if a.Echo, data, err = getField(data, maxNonceWire); err != nil {
		return ackBody{}, err
	}
	if a.Nonce, data, err = getField(data, maxNonceWire); err != nil {
		return ackBody{}, err
	}
	if a.MAC, data, err = getField(data, maxMACWire); err != nil {
		return ackBody{}, err
	}
	if len(data) != 0 {
		return ackBody{}, fmt.Errorf("%w: %d trailing bytes", ErrOverflow, len(data))
	}
	return a, nil
}
