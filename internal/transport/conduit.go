package transport

import (
	"fmt"
	"sync"

	"repro/internal/radio"
)

// Conduit adapts an Endpoint to the radio.Conduit delivery interface the
// protocol engine sends through. The simulated Medium carries frames for
// every node in one process; a transport Conduit carries them for exactly
// one — the local daemon — so Attach only accepts the local node ID and
// remote identities come from the authenticated peer table instead of
// array indices.
type Conduit struct {
	e *Endpoint

	mu      sync.Mutex
	handler radio.Handler
}

var _ radio.Conduit = (*Conduit)(nil)

// Endpoint returns the underlying endpoint (for Dial, Bye, Close, and
// the peer table).
func (c *Conduit) Endpoint() *Endpoint { return c.e }

// Attach registers the local receive handler. Only the endpoint's own
// node ID is meaningful here — a transport conduit is one node's view of
// the network, not the whole medium — so other IDs are ignored.
func (c *Conduit) Attach(node int, h radio.Handler) {
	if node != c.e.Node() {
		return
	}
	c.mu.Lock()
	c.handler = h
	c.mu.Unlock()
}

// deliver hands one received frame to the attached handler, shaped the
// way the simulated medium shapes it: Payload is the frame bytes, Kind is
// peeked from the frame header (the receiver's wire.Decode remains the
// authoritative parser, exactly as on the simulated path).
func (c *Conduit) deliver(from int, frame []byte) {
	c.mu.Lock()
	h := c.handler
	c.mu.Unlock()
	if h == nil {
		return
	}
	kind := 0
	if len(frame) >= 2 {
		kind = int(frame[1])
	}
	h(from, radio.Message{Kind: kind, PayloadBits: len(frame) * 8, Payload: frame})
}

// frameOf extracts the wire-frame bytes the engine's send path encodes
// into Message.Payload.
func frameOf(msg radio.Message) ([]byte, error) {
	frame, ok := msg.Payload.([]byte)
	if !ok {
		return nil, fmt.Errorf("transport: payload %T is not an encoded wire frame", msg.Payload)
	}
	return frame, nil
}

// Broadcast fans the frame out to every authenticated peer.
func (c *Conduit) Broadcast(from int, msg radio.Message) error {
	if from != c.e.Node() {
		return fmt.Errorf("transport: broadcast from %d, but this endpoint is node %d", from, c.e.Node())
	}
	frame, err := frameOf(msg)
	if err != nil {
		return err
	}
	_, err = c.e.Broadcast(frame)
	return err
}

// Unicast sends the frame to one authenticated peer.
func (c *Conduit) Unicast(from, to int, msg radio.Message) error {
	if from != c.e.Node() {
		return fmt.Errorf("transport: unicast from %d, but this endpoint is node %d", from, c.e.Node())
	}
	frame, err := frameOf(msg)
	if err != nil {
		return err
	}
	return c.e.Send(to, frame)
}

// Stats maps the datagram counters onto the radio stats shape:
// transmissions are datagrams sent, deliveries are datagrams received.
// Jamming and channel faults are physical-world phenomena the socket
// path cannot observe; those fields stay zero.
func (c *Conduit) Stats() radio.Stats {
	return radio.Stats{
		Transmissions: int(c.e.TxDatagrams()),
		Delivered:     int(c.e.RxDatagrams()),
	}
}
