package core

import (
	"bytes"
	"encoding/binary"
	"slices"

	"repro/internal/ibc"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/wire"
)

// M-NDP — the multi-hop neighbor-discovery protocol of §V-C.
//
// The origin unicasts a signed request over its established session codes;
// intermediate nodes verify the signature chain, forward to logical
// neighbors not yet covered, and candidate responders derive the pairwise
// key and session code, return a signed response along the reverse path,
// and beacon {HELLO} spread with the derived session code. If origin and
// responder really are physical neighbors the beacon is heard, a CONFIRM
// completes the mutual discovery. Without the beacon step (ablation
// AcceptWithoutBeacon) nodes up to ν hops away are accepted sight unseen —
// the false positives the paper warns about.

// initiateMNDP starts one M-NDP round toward every logical neighbor.
func (nd *Node) initiateMNDP() {
	if nd.down || nd.compromised || len(nd.neighbors) == 0 {
		return
	}
	now := nd.net.engine.Now()
	nd.net.initTime[nd.id] = now
	nonce := nd.newNonce()
	p := nd.net.params
	req := wire.MNDPRequest{
		Nonce: nonce,
		Nu:    p.Nu,
		Hops:  []wire.Hop{{ID: nd.id, Neighbors: nd.neighborIDs()}},
	}
	pos := nd.net.positions[nd.index]
	req.OriginPosX, req.OriginPosY = pos.X, pos.Y
	req.HasOriginPos = nd.net.cfg.GPSFilter
	nd.seenRequests[requestKey(nd.id, nonce)] = true
	nd.net.engine.MustSchedule(nd.sigDelay(), func() {
		if nd.down {
			return
		}
		req.Hops[0].Sig = nd.signRequest(req, 0)
		nd.forwardRequest(req)
	})
}

// sigDelay charges t_sig; verDelay charges k signature verifications.
func (nd *Node) sigDelay() sim.Time {
	if !nd.net.cfg.ModelProcessingDelays {
		return 0
	}
	return sim.Time(nd.net.params.TSig * nd.skew)
}

func (nd *Node) verDelay(k int) sim.Time {
	if !nd.net.cfg.ModelProcessingDelays {
		return 0
	}
	return sim.Time(float64(k) * nd.net.params.TVer * nd.skew)
}

// signRequest signs the request contents up to and including hop i.
func (nd *Node) signRequest(req wire.MNDPRequest, uptoHop int) ibc.Signature {
	return nd.priv.Sign(encodeRequest(req, uptoHop))
}

// encodeRequest canonically encodes the request fields covered by hop i's
// signature: nonce, ν, and every hop's ID and neighbor list up to i.
func encodeRequest(req wire.MNDPRequest, uptoHop int) []byte {
	var buf bytes.Buffer
	buf.WriteString("mndp-req")
	buf.Write(req.Nonce)
	_ = binary.Write(&buf, binary.BigEndian, int32(req.Nu))
	for i := 0; i <= uptoHop && i < len(req.Hops); i++ {
		_ = binary.Write(&buf, binary.BigEndian, uint16(req.Hops[i].ID))
		_ = binary.Write(&buf, binary.BigEndian, int32(len(req.Hops[i].Neighbors)))
		for _, nb := range req.Hops[i].Neighbors {
			_ = binary.Write(&buf, binary.BigEndian, uint16(nb))
		}
	}
	return buf.Bytes()
}

// encodeResponse canonically encodes the response fields covered by the
// signature of path hop uptoHop: origin, nonces, ν, and every path hop's
// ID and neighbor list up to and including that hop (Path[0] is the
// responder; later entries are relays, each signing the response so far —
// "each node verifies the previous signatures and adds its own ID, logical
// neighbor list and signature", §V-C).
func encodeResponse(resp wire.MNDPResponse, uptoHop int) []byte {
	var buf bytes.Buffer
	buf.WriteString("mndp-resp")
	_ = binary.Write(&buf, binary.BigEndian, uint16(resp.Origin))
	buf.Write(resp.OriginNonce)
	buf.Write(resp.Nonce)
	_ = binary.Write(&buf, binary.BigEndian, int32(resp.Nu))
	for i := 0; i <= uptoHop && i < len(resp.Path); i++ {
		h := resp.Path[i]
		_ = binary.Write(&buf, binary.BigEndian, uint16(h.ID))
		_ = binary.Write(&buf, binary.BigEndian, int32(len(h.Neighbors)))
		for _, nb := range h.Neighbors {
			_ = binary.Write(&buf, binary.BigEndian, uint16(nb))
		}
	}
	return buf.Bytes()
}

func requestKey(origin ibc.NodeID, nonce []byte) string {
	return string(idBytes(origin)) + string(nonce)
}

// requestBits is the airtime size of a request in bits.
func (nd *Node) requestBits(req wire.MNDPRequest) int {
	p := nd.net.params
	bits := p.LenNonce + p.LenNu
	for _, h := range req.Hops {
		bits += p.LenID + len(h.Neighbors)*p.LenID + p.LenSig
	}
	return bits
}

func (nd *Node) responseBits(resp wire.MNDPResponse) int {
	p := nd.net.params
	bits := 2*p.LenNonce + p.LenNu + p.LenID
	for _, h := range resp.Path {
		bits += p.LenID + len(h.Neighbors)*p.LenID + p.LenSig
	}
	return bits
}

// forwardRequest unicasts req to every logical neighbor not already
// covered by the hop records.
func (nd *Node) forwardRequest(req wire.MNDPRequest) {
	// Targets are our logical neighbors minus everything already covered
	// by earlier hops (ℒ_B − ℒ_A ∪ ℒ_C in the paper's notation). Our own
	// hop record — the last one — lists our neighbors and must not count
	// as coverage.
	covered := map[ibc.NodeID]bool{}
	for i, h := range req.Hops {
		covered[h.ID] = true
		if i == len(req.Hops)-1 && h.ID == nd.id {
			continue
		}
		for _, nb := range h.Neighbors {
			covered[nb] = true
		}
	}
	bits := nd.requestBits(req)
	targets := 0
	// Iterate in sorted ID order: map order would vary run to run, and the
	// resulting unicast scheduling order perturbs downstream duplicate
	// suppression — breaking same-seed reproducibility.
	for _, id := range nd.neighborIDs() {
		// The origin sends to everyone in ℒ; forwarders only to nodes not
		// already reachable per the recorded neighbor lists.
		if len(req.Hops) > 1 && covered[id] {
			continue
		}
		if id == req.Hops[0].ID {
			continue
		}
		targets++
		_ = nd.net.send(nd.index, int(id), radio.Message{
			Kind:        wire.KindMNDPRequest,
			Code:        radio.SessionCode,
			PayloadBits: bits,
			Payload:     req,
		})
	}
	nd.net.m.onMNDPFlood(targets)
}

// onMNDPRequest verifies and processes a request relayed by a logical
// neighbor.
func (nd *Node) onMNDPRequest(from int, msg radio.Message) {
	req, ok := msg.Payload.(wire.MNDPRequest)
	if !ok || len(req.Hops) == 0 {
		return
	}
	relay := ibc.NodeID(from)
	if !nd.IsLogicalNeighbor(relay) || req.Hops[len(req.Hops)-1].ID != relay {
		return
	}
	origin := req.Hops[0].ID
	if origin == nd.id {
		return
	}
	key := requestKey(origin, req.Nonce)
	if nd.seenRequests[key] {
		return
	}
	nd.seenRequests[key] = true
	// Verify the whole signature chain (t_ver each), then continue.
	k := len(req.Hops)
	sp := nd.net.spanStart(nd.net.engine.RunSpan(), nd.index, int(origin), "mndp.verify")
	nd.net.engine.MustSchedule(nd.verDelay(k), func() {
		nd.net.spanEnd(sp, nd.index, int(origin), "")
		nd.processRequest(req)
	})
}

func (nd *Node) processRequest(req wire.MNDPRequest) {
	// 1. Signatures of the origin and every forwarder.
	for i, h := range req.Hops {
		nd.stats.SigVerifications++
		if err := ibc.Verify(nd.net.rootPub, h.ID, encodeRequest(req, i), h.Sig); err != nil {
			nd.stats.SigFailures++
			nd.reportInvalid(radio.SessionCode)
			return
		}
	}
	// 2. Path validity: each forwarder must be a declared neighbor of the
	// previous hop, and the last hop a logical neighbor of ours.
	for i := 1; i < len(req.Hops); i++ {
		if !slices.Contains(req.Hops[i-1].Neighbors, req.Hops[i].ID) {
			return
		}
	}
	origin := req.Hops[0].ID
	// Respond only when the origin is not already a logical neighbor;
	// forwarding continues regardless so other candidates are reached.
	respond := !nd.IsLogicalNeighbor(origin)
	// Optional GPS filter: only answer if the origin claims a position
	// within our transmission range.
	if respond && nd.net.cfg.GPSFilter && req.HasOriginPos {
		self := nd.net.positions[nd.index]
		dx, dy := self.X-req.OriginPosX, self.Y-req.OriginPosY
		if dx*dx+dy*dy > nd.net.params.Range*nd.net.params.Range {
			respond = false
		}
	}
	if respond {
		nd.respondToRequest(req)
	}

	// 3. Forward while the hop budget allows.
	if len(req.Hops) < req.Nu {
		fwd := req
		fwd.Hops = append(append([]wire.Hop(nil), req.Hops...), wire.Hop{
			ID:        nd.id,
			Neighbors: nd.neighborIDs(),
		})
		nd.net.engine.MustSchedule(nd.sigDelay(), func() {
			if nd.down {
				return
			}
			fwd.Hops[len(fwd.Hops)-1].Sig = nd.signRequest(fwd, len(fwd.Hops)-1)
			nd.forwardRequest(fwd)
		})
	}
}

// respondToRequest derives the pairwise key and session code with the
// origin, returns the signed response along the reverse path, and beacons
// the session HELLO.
func (nd *Node) respondToRequest(req wire.MNDPRequest) {
	origin := req.Hops[0].ID
	if _, pending := nd.mndpIn[origin]; pending {
		return
	}
	nonce := nd.newNonce()
	resp := wire.MNDPResponse{
		Origin:      origin,
		Nonce:       nonce,
		OriginNonce: append([]byte(nil), req.Nonce...),
		Nu:          req.Nu,
	}
	// Reverse route: back through the relays that carried the request.
	for i := len(req.Hops) - 1; i >= 1; i-- {
		resp.ReturnRoute = append(resp.ReturnRoute, req.Hops[i].ID)
	}
	// The respond span covers key derivation plus signing until the signed
	// response leaves the radio.
	sp := nd.net.spanStart(nd.net.engine.RunSpan(), nd.index, int(origin), "mndp.respond")
	nd.net.engine.MustSchedule(nd.keyDelay()+nd.sigDelay(), func() {
		if nd.down {
			nd.net.spanEnd(sp, nd.index, int(origin), "down")
			return
		}
		key := nd.priv.SharedKey(origin)
		nd.stats.KeyComputations++
		pending := &mndpPending{peer: origin, key: key, initiatedAt: nd.net.engine.Now()}
		nd.mndpIn[origin] = pending
		nd.scheduleMNDPReap(nd.mndpIn, origin, pending)
		resp.Path = []wire.Hop{{ID: nd.id, Neighbors: nd.neighborIDs()}}
		resp.Path[0].Sig = nd.priv.Sign(encodeResponse(resp, 0))
		next := int(origin)
		if len(resp.ReturnRoute) > 0 {
			next = int(resp.ReturnRoute[0])
			resp.ReturnRoute = resp.ReturnRoute[1:]
		}
		_ = nd.net.send(nd.index, next, radio.Message{
			Kind:        wire.KindMNDPResponse,
			Code:        radio.SessionCode,
			PayloadBits: nd.responseBits(resp),
			Payload:     resp,
		})
		nd.net.spanEnd(sp, nd.index, int(origin), "responded")
		if nd.net.cfg.AcceptWithoutBeacon {
			nd.acceptNeighbor(origin, ViaMNDP, key)
			delete(nd.mndpIn, origin)
			return
		}
		nd.beaconSessionHello(origin)
	})
}

// beaconSessionHello broadcasts {HELLO, ID} spread with the derived session
// code several times over the τ_h window so the origin, after processing
// the response, can hear at least one copy.
func (nd *Node) beaconSessionHello(origin ibc.NodeID) {
	p := nd.net.params
	// τ_h upper-bounds the response's travel time over ν hops: per hop,
	// up to ν+1 signature verifications plus signing and airtime.
	perHop := float64(p.Nu+1)*p.TVer + p.TSig + p.TKey + 0.01
	tauH := sim.Time(float64(p.Nu) * perHop * 2)
	const beacons = 8
	for i := 1; i <= beacons; i++ {
		at := tauH * sim.Time(i) / sim.Time(beacons)
		nd.net.engine.MustSchedule(at, func() {
			if _, pending := nd.mndpIn[origin]; !pending {
				return // confirmed, reaped by the session timeout, or lost in a crash
			}
			_ = nd.net.send(nd.index, -1, radio.Message{
				Kind:        wire.KindSessionHello,
				Code:        radio.SessionCode,
				PayloadBits: p.LenType + p.LenID,
				Payload:     wire.Session{Sender: nd.id, Peer: origin},
			})
		})
	}
}

// onMNDPResponse relays a response toward the origin, or completes the
// exchange at the origin.
func (nd *Node) onMNDPResponse(from int, msg radio.Message) {
	resp, ok := msg.Payload.(wire.MNDPResponse)
	if !ok || len(resp.Path) == 0 {
		return
	}
	if !nd.IsLogicalNeighbor(ibc.NodeID(from)) {
		return
	}
	k := len(resp.Path)
	nd.net.engine.MustSchedule(nd.verDelay(k), func() { nd.processResponse(resp) })
}

func (nd *Node) processResponse(resp wire.MNDPResponse) {
	// Verify the whole signature chain: the responder's plus every
	// relay's.
	responder := resp.Path[0].ID
	for i, h := range resp.Path {
		nd.stats.SigVerifications++
		if err := ibc.Verify(nd.net.rootPub, h.ID, encodeResponse(resp, i), h.Sig); err != nil {
			nd.stats.SigFailures++
			nd.reportInvalid(radio.SessionCode)
			return
		}
	}
	// Path validity: every relay must be a declared logical neighbor of
	// the previous path entry (origin's final check "whether C ∈ ℒ_B").
	for i := 1; i < len(resp.Path); i++ {
		if !slices.Contains(resp.Path[i-1].Neighbors, resp.Path[i].ID) {
			return
		}
	}
	if resp.Origin != nd.id {
		// Relay toward the origin: append our own signed hop record.
		next := int(resp.Origin)
		fwd := resp
		if len(resp.ReturnRoute) > 0 {
			next = int(resp.ReturnRoute[0])
			fwd.ReturnRoute = resp.ReturnRoute[1:]
		}
		fwd.Path = append(append([]wire.Hop(nil), resp.Path...), wire.Hop{
			ID:        nd.id,
			Neighbors: nd.neighborIDs(),
		})
		nd.net.engine.MustSchedule(nd.sigDelay(), func() {
			if nd.down {
				return
			}
			fwd.Path[len(fwd.Path)-1].Sig = nd.priv.Sign(encodeResponse(fwd, len(fwd.Path)-1))
			_ = nd.net.send(nd.index, next, radio.Message{
				Kind:        wire.KindMNDPResponse,
				Code:        radio.SessionCode,
				PayloadBits: nd.responseBits(fwd),
				Payload:     fwd,
			})
		})
		return
	}
	// Origin: derive the pairwise key and session code, then listen for
	// the responder's beacon.
	if nd.IsLogicalNeighbor(responder) {
		return
	}
	if _, pending := nd.mndpOut[responder]; pending {
		return
	}
	nd.net.engine.MustSchedule(nd.keyDelay(), func() {
		if nd.down {
			return
		}
		key := nd.priv.SharedKey(responder)
		nd.stats.KeyComputations++
		pending := &mndpPending{peer: responder, key: key, initiatedAt: nd.net.engine.Now()}
		nd.mndpOut[responder] = pending
		if nd.net.cfg.AcceptWithoutBeacon {
			nd.acceptNeighbor(responder, ViaMNDP, key)
			delete(nd.mndpOut, responder)
			return
		}
		nd.scheduleMNDPReap(nd.mndpOut, responder, pending)
	})
}

// onSessionHello completes M-NDP at the origin: the beacon proves the
// responder is physically in range.
func (nd *Node) onSessionHello(from int, msg radio.Message) {
	p, ok := msg.Payload.(wire.Session)
	if !ok || p.Peer != nd.id {
		return
	}
	if int(p.Sender) != from {
		return
	}
	pending, exists := nd.mndpOut[p.Sender]
	if !exists {
		// With retries on, a beacon from a peer we already accepted means
		// our previous SESS-CONFIRM was destroyed and the responder is
		// still waiting: re-acknowledge so it can close its half-open side.
		if !nd.retryEnabled() || !nd.IsLogicalNeighbor(p.Sender) {
			return
		}
	} else {
		nd.acceptNeighbor(p.Sender, ViaMNDP, pending.key)
		delete(nd.mndpOut, p.Sender)
	}
	params := nd.net.params
	_ = nd.net.send(nd.index, from, radio.Message{
		Kind:        wire.KindSessionConfirm,
		Code:        radio.SessionCode,
		PayloadBits: params.LenType + params.LenID,
		Payload:     wire.Session{Sender: nd.id, Peer: p.Sender},
	})
}

// onSessionConfirm completes M-NDP at the responder.
func (nd *Node) onSessionConfirm(from int, msg radio.Message) {
	p, ok := msg.Payload.(wire.Session)
	if !ok || p.Peer != nd.id {
		return
	}
	pending, exists := nd.mndpIn[p.Sender]
	if !exists || int(p.Sender) != from {
		return
	}
	nd.acceptNeighbor(p.Sender, ViaMNDP, pending.key)
	delete(nd.mndpIn, p.Sender)
}
