package core

import (
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
// and beacon {HELLO} spread with the derived session code. Only if origin
// and responder really are physical neighbors is the beacon heard and a
// CONFIRM completes the mutual discovery, so a responder ν hops away is
// never accepted — the false positives the paper warns about. The optional
// GPS filter stops such far nodes from answering at all.
//
// Requests and responses carry one signed hop chain: "each node verifies
// the previous signatures and adds its own ID, logical neighbor list and
// signature" (§V-C). A request's chain is its Hops (origin first, then
// forwarders), a response's its Path (responder first, then relays). Hop i
// signs the transcript of the message header followed by the hop records
// of hops 0..i, all big-endian:
//
//	request header   "mndp-req" ‖ nonce ‖ int32 ν
//	response header  "mndp-resp" ‖ uint16 origin ‖ origin nonce ‖ nonce ‖ int32 ν
//	hop record       uint16 ID ‖ int32 neighbor count ‖ uint16 per neighbor
//
// The GPS claim and the return route travel unsigned. verifyChain checks
// a received chain and extendChain adds the next signed link, for both
// message kinds.

// initiateMNDP starts one M-NDP round toward every logical neighbor.
func (nd *Node) initiateMNDP() {
	if nd.down || nd.compromised || len(nd.neighbors) == 0 {
		return
	}
	nd.net.initTime[nd.id] = nd.net.engine.Now()
	req := wire.MNDPRequest{Nonce: nd.newNonce(), Nu: nd.net.params.Nu}
	pos := nd.net.positions[nd.index]
	req.OriginPosX, req.OriginPosY = pos.X, pos.Y
	req.HasOriginPos = nd.net.cfg.GPSFilter
	nd.seenRequests[requestKey(nd.id, req.Nonce)] = true
	nd.extendChain(requestHeader(req), nil, func(hops []wire.Hop) {
		signed := req
		signed.Hops = hops
		nd.forwardRequest(signed)
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

// requestHeader and responseHeader return the part of every transcript
// that precedes the hop records. The result is clipped, so each
// transcript appended to it gets its own array.
func requestHeader(req wire.MNDPRequest) []byte {
	b := append([]byte("mndp-req"), req.Nonce...)
	return slices.Clip(binary.BigEndian.AppendUint32(b, uint32(req.Nu)))
}

func responseHeader(resp wire.MNDPResponse) []byte {
	b := binary.BigEndian.AppendUint16([]byte("mndp-resp"), uint16(resp.Origin))
	b = append(append(b, resp.OriginNonce...), resp.Nonce...)
	return slices.Clip(binary.BigEndian.AppendUint32(b, uint32(resp.Nu)))
}

// appendHop appends h's hop record to a transcript.
func appendHop(b []byte, h wire.Hop) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(h.ID))
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.Neighbors)))
	for _, nb := range h.Neighbors {
		b = binary.BigEndian.AppendUint16(b, uint16(nb))
	}
	return b
}

// transcript is what the last of hops signs: the header, then every hop
// record in order.
func transcript(header []byte, hops []wire.Hop) []byte {
	for _, h := range hops {
		header = appendHop(header, h)
	}
	return header
}

// verifyChain checks a received chain: every hop's signature over its
// transcript (t_ver each, already charged by the caller), then path
// validity — each hop must be a declared logical neighbor of the one
// before it (the origin's final check "whether C ∈ ℒ_B").
func (nd *Node) verifyChain(header []byte, hops []wire.Hop) bool {
	t := header
	for _, h := range hops {
		t = appendHop(t, h)
		nd.stats.SigVerifications++
		if err := nd.net.verifier.Verify(h.ID, t, h.Sig); err != nil {
			nd.stats.SigFailures++
			return false
		}
	}
	for i := 1; i < len(hops); i++ {
		if !slices.Contains(hops[i-1].Neighbors, hops[i].ID) {
			return false
		}
	}
	return true
}

// extendChain adds nd's link to a chain: it appends nd's hop record (ID
// and logical-neighbor list) to a copy of hops, waits t_sig, signs the
// transcript up to the new hop and hands the extended chain on — unless
// nd has crashed meanwhile.
func (nd *Node) extendChain(header []byte, hops []wire.Hop, handOn func(hops []wire.Hop)) {
	chain := append(slices.Clip(hops), wire.Hop{ID: nd.id, Neighbors: nd.neighborIDs()})
	nd.net.engine.MustSchedule(nd.sigDelay(), func() {
		if nd.down {
			return
		}
		chain[len(chain)-1].Sig = nd.priv.Sign(transcript(header, chain))
		handOn(chain)
	})
}

func requestKey(origin ibc.NodeID, nonce []byte) string {
	return string(idBytes(origin)) + string(nonce)
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
		_ = nd.net.send(nd.index, int(id), wire.KindMNDPRequest, radio.SessionCode, req)
	}
	if targets > 0 {
		nd.net.m.mndpForwards.Add(uint64(targets))
		nd.net.m.mndpFanout.Observe(float64(targets))
	}
}

// onMNDPRequest verifies and processes a request relayed by a logical
// neighbor.
func (nd *Node) onMNDPRequest(from int, req wire.MNDPRequest) {
	if len(req.Hops) == 0 {
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
	header := requestHeader(req)
	if !nd.verifyChain(header, req.Hops) {
		return
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
	// Forward while the hop budget allows.
	if len(req.Hops) < req.Nu {
		nd.extendChain(header, req.Hops, func(hops []wire.Hop) {
			fwd := req
			fwd.Hops = hops
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
	resp := wire.MNDPResponse{
		Origin:      origin,
		Nonce:       nd.newNonce(),
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
		nd.openMNDPPending(&nd.mndpIn, origin)
		resp.Path = []wire.Hop{{ID: nd.id, Neighbors: nd.neighborIDs()}}
		resp.Path[0].Sig = nd.priv.Sign(transcript(responseHeader(resp), resp.Path))
		nd.sendResponse(resp)
		nd.net.spanEnd(sp, nd.index, int(origin), "responded")
		nd.beaconSessionHello(origin)
	})
}

// sendResponse unicasts resp to the next relay on its return route, or to
// the origin once the route is used up.
func (nd *Node) sendResponse(resp wire.MNDPResponse) {
	next := int(resp.Origin)
	if len(resp.ReturnRoute) > 0 {
		next = int(resp.ReturnRoute[0])
		resp.ReturnRoute = resp.ReturnRoute[1:]
	}
	_ = nd.net.send(nd.index, next, wire.KindMNDPResponse, radio.SessionCode, resp)
}

// openMNDPPending derives the pairwise key with peer and records the
// exchange in *table (&nd.mndpOut at the origin, &nd.mndpIn at the
// responder) until the session beacon completes it or, with retries on,
// the session timeout reaps it. The reap reads the node's live table
// through the pointer: CrashNode swaps in fresh maps, and a pending the
// crash dropped must not be reaped, or counted, again.
func (nd *Node) openMNDPPending(table *map[ibc.NodeID]*mndpPending, peer ibc.NodeID) {
	p := &mndpPending{key: nd.priv.SharedKey(peer), initiatedAt: nd.net.engine.Now()}
	nd.stats.KeyComputations++
	(*table)[peer] = p
	if nd.retryEnabled() {
		nd.reapAfterTimeout(func() bool {
			if (*table)[peer] != p {
				return false
			}
			delete(*table, peer)
			return true
		})
	}
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
			_ = nd.net.send(nd.index, -1, wire.KindSessionHello, radio.SessionCode, wire.Session{Sender: nd.id, Peer: origin})
		})
	}
}

// onMNDPResponse relays a response toward the origin, or completes the
// exchange at the origin.
func (nd *Node) onMNDPResponse(from int, resp wire.MNDPResponse) {
	if len(resp.Path) == 0 {
		return
	}
	if !nd.IsLogicalNeighbor(ibc.NodeID(from)) {
		return
	}
	k := len(resp.Path)
	nd.net.engine.MustSchedule(nd.verDelay(k), func() { nd.processResponse(resp) })
}

func (nd *Node) processResponse(resp wire.MNDPResponse) {
	header := responseHeader(resp)
	if !nd.verifyChain(header, resp.Path) {
		return
	}
	if resp.Origin != nd.id {
		// Relay toward the origin with our own signed hop record.
		nd.extendChain(header, resp.Path, func(path []wire.Hop) {
			fwd := resp
			fwd.Path = path
			nd.sendResponse(fwd)
		})
		return
	}
	// Origin: derive the pairwise key and session code, then listen for
	// the responder's beacon.
	responder := resp.Path[0].ID
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
		nd.openMNDPPending(&nd.mndpOut, responder)
	})
}

// onSessionHello completes M-NDP at the origin: the beacon proves the
// responder is physically in range.
func (nd *Node) onSessionHello(from int, p wire.Session) {
	if p.Peer != nd.id {
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
	_ = nd.net.send(nd.index, from, wire.KindSessionConfirm, radio.SessionCode, wire.Session{Sender: nd.id, Peer: p.Sender})
}

// onSessionConfirm completes M-NDP at the responder.
func (nd *Node) onSessionConfirm(from int, p wire.Session) {
	if p.Peer != nd.id {
		return
	}
	pending, exists := nd.mndpIn[p.Sender]
	if !exists || int(p.Sender) != from {
		return
	}
	nd.acceptNeighbor(p.Sender, ViaMNDP, pending.key)
	delete(nd.mndpIn, p.Sender)
}
