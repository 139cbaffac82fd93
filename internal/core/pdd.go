package core

import (
	"time"

	"pds/internal/attr"
	"pds/internal/store"
	"pds/internal/wire"
)

// handleQuery implements Algorithm 1 (PDD Query Processing) for
// metadata, small-data and CDI queries, and dispatches chunk queries to
// the PDR path. Steps: LQT lookup, DS lookup (respond), receiver check,
// forwarding.
func (n *Node) handleQuery(q *wire.Query) {
	n.stats.QueriesReceived++
	n.health.recordSuccess(q.Sender)
	if q.Kind == wire.KindChunk {
		n.handleChunkQuery(q)
		return
	}
	if q.Kind == wire.KindAdvert {
		n.handleAdvert(q)
		return
	}
	now := n.clk.Now()

	// LQT Lookup: drop redundant copies, insert new queries.
	if n.lqt.Exists(q.ID, now) {
		n.stats.QueriesDuplicate++
		return
	}
	lq := n.lqt.Insert(q, now+q.TTL)

	// DS Lookup: answer from the local store toward the query sender.
	// Per Algorithm 1 this happens before the receiver check, so even
	// overheard queries are answered — overhearing is what spreads
	// cached copies toward consumers.
	switch q.Kind {
	case wire.KindMetadata, wire.KindData:
		n.scheduleServe(q.Kind)
	case wire.KindCDI:
		n.routing.ObserveQuery(q.Item.Key(), q.Sender, now)
		n.respondCDI(q)
	}

	// Receiver Check: forward only if we are an intended receiver (an
	// empty list means all neighbors).
	if len(q.Receivers) > 0 && !containsID(q.Receivers, n.id) {
		return
	}
	// Hop scope: a query arriving with one hop left has spent its
	// budget (§III-A's optional hop counter).
	if q.HopsLeft == 1 {
		return
	}

	// Forwarding: copy-on-write, never clone-then-mutate. The received
	// query is shared with every node that heard the same frame, so the
	// forwarded variant is a fresh Query struct sharing the immutable
	// sections (Sel, Item, ChunkIDs) with only the rewritten fields
	// replaced: sender, receiver list (flooded planes keep it empty),
	// hop budget, and a snapshot of this node's rewritten Bloom filter
	// so downstream nodes skip entries we just served (§III-B.2
	// en-route query rewriting). The filter is copied; the payload and
	// selector never are.
	fwd := *q
	fwd.Sender = n.id
	fwd.Receivers = nil
	if fwd.HopsLeft > 1 {
		fwd.HopsLeft--
	}
	if lq.Bloom != nil {
		// Snapshot, not alias: the lingering copy keeps mutating after
		// this frame is queued, and an in-flight frame must not change.
		fwd.Bloom = lq.Bloom.Clone()
	}
	n.stats.QueriesForwarded++
	n.tr.QueryForward(q.ID, q.Sender, int(fwd.HopsLeft))
	n.sendJittered(&wire.Message{Type: wire.TypeQuery, Query: &fwd}, n.cfg.ForwardJitterMax)
}

// handleAdvert processes a content advertisement (strategy plane):
// deduplicate via the LQT like any flooded query, hand the frozen
// advert to the routing strategy, then re-flood with the hop-traveled
// counter (Round) incremented so downstream nodes learn their distance
// to the origin. Nodes running a non-advertising strategy still relay —
// strategies are per-node and a mixed network must stay connected.
func (n *Node) handleAdvert(q *wire.Query) {
	now := n.clk.Now()
	if n.lqt.Exists(q.ID, now) {
		n.stats.QueriesDuplicate++
		return
	}
	n.lqt.Insert(q, now+q.TTL)
	n.routing.ObserveAdvert(q, now)
	if len(q.Receivers) > 0 && !containsID(q.Receivers, n.id) {
		return
	}
	if q.HopsLeft == 1 {
		return
	}
	// Copy-on-write forward: fresh struct, shared immutable sections
	// (the Bloom filter travels frozen; distance is carried in Round).
	fwd := *q
	fwd.Sender = n.id
	fwd.Receivers = nil
	fwd.Round = q.Round + 1
	if fwd.HopsLeft > 1 {
		fwd.HopsLeft--
	}
	n.stats.QueriesForwarded++
	n.tr.QueryForward(q.ID, q.Sender, int(fwd.HopsLeft))
	n.sendJittered(&wire.Message{Type: wire.TypeQuery, Query: &fwd}, n.cfg.ForwardJitterMax)
}

// scheduleServe coalesces response generation for a query kind: the
// first query arms a jittered serve event; queries arriving within the
// jitter window are answered by the same pass. This is where mixedcast
// originates (§III-B.1): the single pass serves the union of lingering
// queries, so entries wanted by several consumers leave in one message
// with one role per (receiver, query).
func (n *Node) scheduleServe(kind wire.QueryKind) {
	if n.servePending == nil {
		n.servePending = make(map[wire.QueryKind]bool)
	}
	if n.servePending[kind] {
		return
	}
	n.servePending[kind] = true
	delay := time.Duration(0)
	if n.cfg.ResponseJitterMax > 0 {
		delay = time.Duration(n.rng.Int63n(int64(n.cfg.ResponseJitterMax)))
	}
	epoch := n.epoch
	n.clk.Schedule(delay, func() {
		if n.epoch != epoch {
			return // node crashed since; servePending was wiped
		}
		n.servePending[kind] = false
		if !n.stopped {
			n.serveQueries(kind)
		}
	})
}

// serveQueries answers every lingering query of the kind from the local
// store in one mixedcast pass.
func (n *Node) serveQueries(kind wire.QueryKind) {
	now := n.clk.Now()
	all := n.lqt.AllOfKind(kind, now)
	// Serve each query once (Algorithm 1 answers at query receipt);
	// already-served queries participate only in relaying. Without this
	// every later round would be re-answered from scratch by every
	// node, multiplying traffic.
	routes := all[:0]
	for _, lq := range all {
		if !lq.Served && !lq.Exhausted {
			routes = append(routes, lq)
		}
	}
	if len(routes) == 0 {
		return
	}
	for _, lq := range routes {
		lq.Served = true
	}
	// Candidate set: one store scan, each hit tagged with the first
	// route whose selector it satisfies, ordered by that route, then key.
	sels := make([]attr.Query, len(routes))
	for i, lq := range routes {
		sels[i] = lq.Query.Sel
	}
	hits := n.ds.MatchFirst(sels, kind == wire.KindData, now)

	var (
		entries []attr.Descriptor
		blobs   []wire.Blob
	)
	recv := make(map[wire.NodeID]bool)
	serves := make(map[wire.Serve]bool)
	for _, h := range hits {
		d := h.Desc
		key := d.Key()
		forward := false
		// Routes before h.First do not match d, and h.First does.
		for ri := h.First; ri < len(routes); ri++ {
			lq := routes[ri]
			if ri > h.First && !lq.Query.Sel.Match(d) {
				continue
			}
			if lq.AlreadyForwarded(key) {
				continue
			}
			if lq.Bloom != nil && !lq.Bloom.Overloaded() && lq.Bloom.Contains(key) {
				n.stats.EntriesPruned++
				n.tr.BloomSuppress(lq.Query.ID, key)
				continue
			}
			if lq.Bloom != nil {
				lq.Bloom.Add(key)
			}
			lq.MarkForwarded(key)
			if lq.Query.Origin != n.id {
				recv[lq.Query.Sender] = true
				serves[wire.Serve{Node: lq.Query.Sender, QueryID: lq.Query.ID}] = true
				forward = true
			}
			n.afterServing(lq)
		}
		if !forward {
			continue
		}
		if kind == wire.KindData {
			if payload, ok := n.ds.Payload(d); ok {
				blobs = append(blobs, wire.Blob{Desc: d, Payload: payload})
			}
		} else {
			entries = append(entries, d)
		}
	}
	if len(recv) == 0 {
		return
	}
	receivers := sortedIDs(recv)
	sv := sortedServes(serves)
	if kind == wire.KindData {
		if len(blobs) > 0 {
			n.sendBlobResponses(kind, attr.Descriptor{}, blobs, receivers, sv)
		}
		return
	}
	if len(entries) > 0 {
		n.sendEntryResponses(kind, entries, receivers, sv)
	}
}

// afterServing implements the one-shot Interest ablation: with lingering
// disabled, a query is exhausted as soon as it has steered one
// response, as CCN/NDN Interests are (§VIII). The entry stays in the
// table purely for flood deduplication.
func (n *Node) afterServing(lq *store.LingeringQuery) {
	if !n.cfg.LingeringEnabled {
		lq.Exhausted = true
	}
}

// sendEntryResponses packs entries into response messages bounded by
// MaxResponseBytes each (mirroring the prototype's 1.5 KB packets) and
// sends them to the receivers.
func (n *Node) sendEntryResponses(kind wire.QueryKind, entries []attr.Descriptor, receivers []wire.NodeID, serves []wire.Serve) {
	budget := n.cfg.MaxResponseBytes
	if budget <= 0 {
		budget = 1400
	}
	var batch []attr.Descriptor
	used := 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		r := &wire.Response{
			ID:        n.newID(),
			Kind:      kind,
			Sender:    n.id,
			Receivers: append([]wire.NodeID(nil), receivers...),
			Serves:    append([]wire.Serve(nil), serves...),
			Entries:   batch,
		}
		n.stats.ResponsesSent++
		n.traceServe(r, len(batch))
		n.sendJittered(&wire.Message{Type: wire.TypeResponse, Response: r}, n.cfg.ResponseJitterMax)
		batch = nil
		used = 0
	}
	for _, d := range entries {
		sz := d.EncodedSize()
		if used+sz > budget && len(batch) > 0 {
			flush()
		}
		batch = append(batch, d)
		used += sz
	}
	flush()
}

// sendBlobResponses packs blobs into response messages; a blob larger
// than the budget (a 256 KB chunk) travels alone, as a unit (§VI-A).
func (n *Node) sendBlobResponses(kind wire.QueryKind, item attr.Descriptor, blobs []wire.Blob, receivers []wire.NodeID, serves []wire.Serve) {
	budget := n.cfg.MaxResponseBytes
	if budget <= 0 {
		budget = 1400
	}
	var batch []wire.Blob
	used := 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		r := &wire.Response{
			ID:        n.newID(),
			Kind:      kind,
			Sender:    n.id,
			Receivers: append([]wire.NodeID(nil), receivers...),
			Serves:    append([]wire.Serve(nil), serves...),
			Item:      item,
			Blobs:     batch,
		}
		n.stats.ResponsesSent++
		n.traceServe(r, len(batch))
		n.sendJittered(&wire.Message{Type: wire.TypeResponse, Response: r}, n.cfg.ResponseJitterMax)
		batch = nil
		used = 0
	}
	for _, b := range blobs {
		sz := b.Desc.EncodedSize() + len(b.Payload)
		if used+sz > budget && len(batch) > 0 {
			flush()
		}
		batch = append(batch, b)
		used += sz
	}
	flush()
}

// handleResponse implements Algorithm 2 (PDD Response Processing) and
// its PDR variants: RR lookup, DS lookup (opportunistic caching),
// receiver check, LQT lookup, forwarding.
func (n *Node) handleResponse(r *wire.Response) {
	n.stats.ResponsesReceived++
	now := n.clk.Now()
	// Hearing from a neighbor clears its failure record: the link works.
	n.health.recordSuccess(r.Sender)

	// RR Lookup: drop redundant copies (e.g. the same response heard
	// from several relaying neighbors).
	if n.rr.Seen(r.ID, now) {
		n.stats.ResponsesDuplicate++
		return
	}

	// DS Lookup: cache everything new, whether or not we are an
	// intended receiver — opportunistic caching from overhearing.
	n.cacheResponse(r, now)

	// Receiver Check: only nodes on return paths relay further.
	if !containsID(r.Receivers, n.id) {
		return
	}

	// LQT Lookup + Forwarding.
	switch r.Kind {
	case wire.KindMetadata:
		n.relayEntries(r, now)
	case wire.KindData:
		n.relayBlobs(r, now)
	case wire.KindCDI:
		n.relayCDI(r, now)
	case wire.KindChunk:
		n.relayChunks(r, now)
	}
}

// cacheResponse absorbs a response's content into local state and
// notifies consumer sessions.
func (n *Node) cacheResponse(r *wire.Response, now time.Duration) {
	switch r.Kind {
	case wire.KindMetadata:
		for _, d := range r.Entries {
			if n.ds.PutCached(d, now+n.cfg.EntryTTL) {
				n.stats.EntriesCached++
			}
		}
		n.notifyDiscovery(r, now)
	case wire.KindData:
		for _, b := range r.Blobs {
			if n.wantsPayload(b.Desc) {
				// Data this node's own collection session asked for is
				// stored unconditionally — the opportunistic cache cap
				// only applies to third-party traffic.
				n.ds.PutPayloadOwned(b.Desc, b.Payload)
			} else if n.ds.PutPayloadCached(b.Desc, b.Payload, now, now+n.cfg.EntryTTL) {
				n.stats.PayloadsCached++
			}
		}
		n.notifyDiscovery(r, now)
	case wire.KindCDI:
		itemKey := r.Item.Key()
		updates := 0
		for _, p := range r.CDI {
			e := store.CDIEntry{
				ChunkID:  p.ChunkID,
				HopCount: p.HopCount + 1,
				Neighbor: r.Sender,
				ExpireAt: now + n.cfg.CDITTL,
			}
			if n.cdi.Update(itemKey, e) {
				updates++
				n.tr.CDIUpdate(r.ID, r.Sender, p.ChunkID, p.HopCount+1)
				n.routing.ObserveCDI(itemKey, p.ChunkID, p.HopCount+1, r.Sender)
			}
		}
		// A CDI response also implies the item exists: cache its entry
		// so later discoveries see it.
		if r.Item.Len() > 0 {
			n.ds.PutCached(r.Item, now+n.cfg.EntryTTL)
		}
		if updates > 0 {
			n.notifyCDI(itemKey, now)
		}
	case wire.KindChunk:
		for _, b := range r.Blobs {
			if n.ds.HasPayload(b.Desc) {
				// Already held: a retransmission or a second route raced
				// the first copy. Counted so chaos tests can bound
				// duplicate delivery; stores below are idempotent.
				n.stats.ChunkDupDeliveries++
			}
			if _, mine := n.retrievals[b.Desc.ItemDescriptor().Key()]; mine {
				// Chunks of an item this node is actively retrieving are
				// the retrieval's output, not opportunistic cache.
				n.ds.PutPayloadOwned(b.Desc, b.Payload)
			} else if n.ds.PutPayloadCached(b.Desc, b.Payload, now, now+n.cfg.EntryTTL) {
				n.stats.PayloadsCached++
			}
			// Cache the item-level entry too so this node answers
			// discovery and CDI queries for the item (§II-C).
			item := b.Desc.ItemDescriptor()
			if item.Len() > 0 {
				n.ds.PutCached(item, now+n.cfg.EntryTTL)
			}
			n.notifyChunk(b.Desc, now)
		}
	}
}

// myRoles returns the query ids this node is asked to relay for, from
// the response's receiver-query bindings.
func (n *Node) myRoles(r *wire.Response) []uint64 {
	var out []uint64
	for _, sv := range r.Serves {
		if sv.Node == n.id {
			out = append(out, sv.QueryID)
		}
	}
	return out
}

// relayEntries performs the mixedcast relay of a metadata response.
// The node forwards each entry only for the queries it was addressed
// under (the response's Serves bindings), so every response copy stays
// on one query's reverse tree; forwarding toward every lingering query
// would flood each entry across the whole mesh once per consumer.
// Entries nobody downstream still wants are pruned via the queries'
// Bloom filters (§III-B.1, §III-B.2); one message carries the union of
// what remains, addressed to the union of upstream senders.
func (n *Node) relayEntries(r *wire.Response, now time.Duration) {
	roles := n.myRoles(r)
	if len(roles) == 0 {
		return
	}
	type route struct {
		lq  *store.LingeringQuery
		qid uint64
	}
	var routes []route
	for _, qid := range roles {
		lq, ok := n.lqt.Get(qid, now)
		if !ok || lq.Query.Kind != r.Kind || lq.Exhausted {
			continue
		}
		routes = append(routes, route{lq: lq, qid: qid})
	}
	if len(routes) == 0 {
		return
	}
	if n.tr.Enabled() {
		for _, rt := range routes {
			n.tr.LQMatch(r.ID, rt.qid)
		}
	}

	if n.cfg.MixedcastEnabled {
		kept := make([]attr.Descriptor, 0, len(r.Entries))
		recv := make(map[wire.NodeID]bool)
		serves := make(map[wire.Serve]bool)
		for _, d := range r.Entries {
			key := d.Key()
			forward := false
			matched := false
			for _, rt := range routes {
				lq := rt.lq
				if !lq.Query.Sel.Match(d) {
					continue
				}
				if lq.AlreadyForwarded(key) {
					matched = true
					continue
				}
				if lq.Bloom != nil && !lq.Bloom.Overloaded() && lq.Bloom.Contains(key) {
					n.tr.BloomSuppress(rt.qid, key)
					continue
				}
				matched = true
				if lq.Bloom != nil {
					lq.Bloom.Add(key)
				}
				lq.MarkForwarded(key)
				if lq.Query.Origin != n.id {
					recv[lq.Query.Sender] = true
					serves[wire.Serve{Node: lq.Query.Sender, QueryID: rt.qid}] = true
					forward = true
				}
				n.afterServing(lq)
			}
			if forward {
				kept = append(kept, d)
			} else if !matched {
				n.stats.EntriesPruned++
				if debugPrune != nil {
					debugPrune(n, r, d)
				}
			}
		}
		if len(kept) == 0 || len(recv) == 0 {
			return
		}
		fwd := &wire.Response{
			ID:        n.newID(),
			Kind:      r.Kind,
			Sender:    n.id,
			Receivers: sortedIDs(recv),
			Serves:    sortedServes(serves),
			Entries:   kept,
		}
		n.stats.ResponsesRelayed++
		n.traceRelay(fwd, r.ID, len(kept))
		n.transmit(&wire.Message{Type: wire.TypeResponse, Response: fwd})
		return
	}

	// Mixedcast ablation: one response message per served query, each
	// carrying only that query's entries (multicast-style).
	for _, rt := range routes {
		lq := rt.lq
		var kept []attr.Descriptor
		for _, d := range r.Entries {
			key := d.Key()
			if !lq.Query.Sel.Match(d) || lq.AlreadyForwarded(key) {
				continue
			}
			if lq.Bloom != nil && !lq.Bloom.Overloaded() && lq.Bloom.Contains(key) {
				n.tr.BloomSuppress(rt.qid, key)
				continue
			}
			if lq.Bloom != nil {
				lq.Bloom.Add(key)
			}
			lq.MarkForwarded(key)
			if lq.Query.Origin != n.id {
				kept = append(kept, d)
			}
			n.afterServing(lq)
		}
		if len(kept) == 0 {
			continue
		}
		fwd := &wire.Response{
			ID:        n.newID(),
			Kind:      r.Kind,
			Sender:    n.id,
			Receivers: []wire.NodeID{lq.Query.Sender},
			Serves:    []wire.Serve{{Node: lq.Query.Sender, QueryID: rt.qid}},
			Entries:   kept,
		}
		n.stats.ResponsesRelayed++
		n.traceRelay(fwd, r.ID, len(kept))
		n.transmit(&wire.Message{Type: wire.TypeResponse, Response: fwd})
	}
}

// relayBlobs relays a small-data response exactly as relayEntries does,
// keyed by payload descriptors.
func (n *Node) relayBlobs(r *wire.Response, now time.Duration) {
	roles := n.myRoles(r)
	if len(roles) == 0 {
		return
	}
	kept := make([]wire.Blob, 0, len(r.Blobs))
	recv := make(map[wire.NodeID]bool)
	serves := make(map[wire.Serve]bool)
	for _, b := range r.Blobs {
		key := b.Desc.Key()
		forward := false
		for _, qid := range roles {
			lq, ok := n.lqt.Get(qid, now)
			if !ok || lq.Query.Kind != r.Kind || lq.Exhausted || !lq.Query.Sel.Match(b.Desc) {
				continue
			}
			if lq.AlreadyForwarded(key) {
				continue
			}
			if lq.Bloom != nil && !lq.Bloom.Overloaded() && lq.Bloom.Contains(key) {
				n.tr.BloomSuppress(qid, key)
				continue
			}
			if lq.Bloom != nil {
				lq.Bloom.Add(key)
			}
			lq.MarkForwarded(key)
			if lq.Query.Origin != n.id {
				recv[lq.Query.Sender] = true
				serves[wire.Serve{Node: lq.Query.Sender, QueryID: qid}] = true
				forward = true
			}
			n.afterServing(lq)
		}
		if forward {
			kept = append(kept, b)
		}
	}
	if len(kept) == 0 || len(recv) == 0 {
		return
	}
	fwd := &wire.Response{
		ID:        n.newID(),
		Kind:      r.Kind,
		Sender:    n.id,
		Receivers: sortedIDs(recv),
		Serves:    sortedServes(serves),
		Blobs:     kept,
	}
	n.stats.ResponsesRelayed++
	n.traceRelay(fwd, r.ID, len(kept))
	n.transmit(&wire.Message{Type: wire.TypeResponse, Response: fwd})
}

// debugPrune, when set by tests, observes relay prunes with no
// matching lingering query.
var debugPrune func(n *Node, r *wire.Response, d attr.Descriptor)

func containsID(ids []wire.NodeID, id wire.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
