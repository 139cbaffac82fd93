package main

import (
	"reflect"
	"time"

	"pds/internal/core"
	"pds/internal/link"
	"pds/internal/radio"
)

// layerSnapshot is every layer's public counters at one instant, summed
// over peers.
type layerSnapshot struct {
	radio       radio.Stats
	link        link.Stats
	core        core.Stats
	events      uint64
	pending     int
	radioQueued int // bytes accepted by Radio.Send but not yet on air
}

// layerRun brackets a traced run phase.
type layerRun struct{ start, end layerSnapshot }

func snapshot(w *world) layerSnapshot {
	s := layerSnapshot{radio: w.medium.Stats(), events: w.eng.Processed(), pending: w.eng.Pending()}
	for _, p := range w.peers {
		addUints(&s.link, p.link.Stats())
		addUints(&s.core, p.node.Stats())
		s.radioQueued += p.radio.QueuedBytes()
	}
	return s
}

// addUints adds every uint64 field of src into dst (*T, same struct T).
func addUints(dst, src any) {
	dv := reflect.ValueOf(dst).Elem()
	sv := reflect.ValueOf(src)
	for i := 0; i < dv.NumField(); i++ {
		if f := dv.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + sv.Field(i).Uint())
		}
	}
}

// subUints returns a − b field by field for a struct of uint64 fields.
func subUints[T any](a, b T) T {
	out := a
	ov := reflect.ValueOf(&out).Elem()
	bv := reflect.ValueOf(b)
	for i := 0; i < ov.NumField(); i++ {
		if f := ov.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() - bv.Field(i).Uint())
		}
	}
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func secs(ns int64) float64 { return time.Duration(ns).Seconds() }

// layerMetrics sets the per-layer metrics of the traced run t, whose
// untraced twin is u, and checks event attribution and byte
// conservation.
func (r *result) layerMetrics(pr *probe, u, t deployment) {
	s, e := t.layers.start, t.layers.end
	rs := subUints(e.radio, s.radio)
	ls := subUints(e.link, s.link)
	cs := subUints(e.core, s.core)
	agg := &pr.agg

	// sim: events by owning layer; radio events are the rest.
	events := e.events - s.events
	owned := pr.events[spanCoreTimer] + pr.events[spanLinkTimer] + pr.events[spanBenchTimer]
	r.set("sim.events", float64(events), "count")
	r.set("sim.events.radio", float64(events-owned), "count")
	r.set("sim.events.link", float64(pr.events[spanLinkTimer]), "count")
	r.set("sim.events.core", float64(pr.events[spanCoreTimer]), "count")
	r.set("sim.events.bench", float64(pr.events[spanBenchTimer]), "count")
	r.set("sim.schedules", float64(int64(events+pr.cancels)+int64(e.pending-s.pending)), "count")
	r.set("sim.cancels", float64(pr.cancels), "count")
	r.set("sim.pending_max", float64(pr.gauges.pendingMax), "count")
	if pr.steps != events {
		r.problem("engine steps seen by the stop predicate (%d) differ from events executed (%d)", pr.steps, events)
	}

	// Self times. A radio event runs on the engine directly, so its step
	// self time holds the engine's dispatch cost as well as the radio's
	// work; the dispatch share is estimated from the steps whose
	// callback is owner-tagged, where it is measured alone.
	var est int64
	if pr.wrappedSteps > 0 {
		est = min(int64(float64(pr.wrappedSelf)/float64(pr.wrappedSteps)*float64(pr.radioSteps)), pr.radioStepSelf)
	}
	simSelf := pr.wrappedSelf + est
	radioSelf := pr.radioStepSelf - est + agg[spanRadioSend].self + agg[spanRadioMove].self
	linkSelf := agg[spanLinkTimer].self + agg[spanLinkRx].self + agg[spanLinkTx].self + agg[spanLinkNotify].self
	coreSelf := agg[spanCoreTimer].self + agg[spanCoreRx].self + agg[spanCoreGiveUp].self + agg[spanCoreAPI].self
	benchSelf := agg[spanBenchTimer].self
	traceSelf := agg[spanTraceSample].self
	attributed := secs(simSelf + radioSelf + linkSelf + coreSelf + benchSelf + traceSelf)
	r.set("sim.self_s", secs(simSelf), "s")
	r.set("bench.self_s", secs(benchSelf), "s")
	r.set("trace.unattributed_s", t.runS-attributed, "s")
	r.note("traced run_s %.4fs = self times %.4fs + unattributed %.4fs (untraced run_s %.4fs)",
		t.runS, attributed, t.runS-attributed, u.runS)

	// radio
	r.set("radio.self_s", secs(radioSelf), "s")
	r.set("radio.transmissions", float64(rs.Transmissions), "count")
	r.set("radio.tx_bytes", float64(rs.TxBytes), "B")
	r.set("radio.delivered", float64(rs.Delivered), "count")
	r.set("radio.collisions", float64(rs.Collisions), "count")
	r.set("radio.random_losses", float64(rs.RandomLosses), "count")
	r.set("radio.buffer_drops", float64(rs.BufferDrops), "count")
	r.set("radio.delivery_ratio", ratio(rs.Delivered, rs.Delivered+rs.Collisions+rs.RandomLosses), "ratio")
	r.set("radio.send_calls", float64(agg[spanRadioSend].calls), "count")
	r.set("radio.send_s", secs(agg[spanRadioSend].total), "s")
	r.set("radio.queued_bytes_max", float64(pr.gauges.radioQueuedMax), "B")
	r.set("radio.airtime_s", pr.tally.airtime.Seconds(), "s")

	// link
	r.set("link.rx_calls", float64(agg[spanLinkRx].calls), "count")
	r.set("link.tx_calls", float64(agg[spanLinkTx].calls), "count")
	r.set("link.timer_calls", float64(agg[spanLinkTimer].calls), "count")
	r.set("link.rx_s", secs(agg[spanLinkRx].total), "s")
	r.set("link.tx_s", secs(agg[spanLinkTx].total), "s")
	r.set("link.timer_s", secs(agg[spanLinkTimer].total), "s")
	r.set("link.self_s", secs(linkSelf), "s")
	r.set("link.transmitted", float64(ls.Transmitted), "count")
	r.set("link.retransmissions", float64(ls.Retransmissions), "count")
	r.set("link.acks_sent", float64(ls.AcksSent), "count")
	r.set("link.acks_received", float64(ls.AcksReceived), "count")
	r.set("link.giveups", float64(ls.GiveUps), "count")
	r.set("link.dup_dropped", float64(ls.DupDropped), "count")
	r.set("link.fragmented", float64(ls.Fragmented), "count")
	r.set("link.reassembled", float64(ls.Reassembled), "count")
	r.set("link.raw_drops", float64(ls.RawDrops), "count")
	r.set("link.retx_ratio", ratio(ls.Retransmissions, ls.Transmitted), "ratio")
	r.set("link.queued_bytes_max", float64(pr.gauges.linkQueuedMax), "B")
	r.set("link.pending_acks_max", float64(pr.gauges.pendingAcksMax), "count")

	// wire: frames Radio.Send accepted, by class.
	var accepted uint64
	for c := wireClass(0); c < numWireClasses; c++ {
		r.set("wire.frames."+wireClassNames[c], float64(pr.frames[c]), "count")
		r.set("wire.bytes."+wireClassNames[c], float64(pr.bytes[c]), "B")
		accepted += pr.bytes[c]
	}
	unsent := int64(accepted) - int64(rs.TxBytes)
	queued := int64(e.radioQueued - s.radioQueued)
	r.set("wire.bytes_unsent_end", float64(unsent), "B")
	r.note("byte conservation: accepted %d B = radio tx_bytes %d B + still queued at the end %d B (difference %d B)",
		accepted, rs.TxBytes, queued, unsent-queued)
	if unsent != queued {
		r.problem("byte conservation: accepted frames exceed radio tx_bytes by %d B, but %d B are queued", unsent, queued)
	}
	if pr.unclassed > 0 {
		r.problem("%d accepted frames fit no wire class", pr.unclassed)
	}

	// core
	r.set("core.rx_calls", float64(agg[spanCoreRx].calls), "count")
	r.set("core.timer_calls", float64(agg[spanCoreTimer].calls), "count")
	r.set("core.rx_s", secs(agg[spanCoreRx].total), "s")
	r.set("core.timer_s", secs(agg[spanCoreTimer].total), "s")
	r.set("core.self_s", secs(coreSelf), "s")
	r.set("core.queries_received", float64(cs.QueriesReceived), "count")
	r.set("core.queries_duplicate", float64(cs.QueriesDuplicate), "count")
	r.set("core.queries_forwarded", float64(cs.QueriesForwarded), "count")
	r.set("core.responses_sent", float64(cs.ResponsesSent), "count")
	r.set("core.responses_relayed", float64(cs.ResponsesRelayed), "count")
	r.set("core.entries_cached", float64(cs.EntriesCached), "count")
	r.set("core.payloads_cached", float64(cs.PayloadsCached), "count")
	r.set("core.entries_pruned", float64(cs.EntriesPruned), "count")
	r.set("core.subqueries_sent", float64(cs.SubQueriesSent), "count")
	r.set("core.chunk_dup_deliveries", float64(cs.ChunkDupDeliveries), "count")
	r.set("core.dup_query_ratio", ratio(cs.QueriesDuplicate, cs.QueriesReceived), "ratio")
	r.set("core.bloom_suppress", float64(pr.tally.bloom), "count")
	r.set("core.mixedcast_merge", float64(pr.tally.mixedcast), "count")
	r.set("core.lq_match", float64(pr.tally.lqMatch), "count")

	// store
	g := pr.gauges
	r.set("store.entries_live_max", float64(g.entriesLiveMax), "count")
	r.set("store.entries_live_end", float64(g.entriesLiveEnd), "count")
	r.set("store.lqt_live_max", float64(g.lqtLiveMax), "count")
	r.set("store.chunks_cached_end", float64(g.chunksCachedEnd), "count")
	r.set("store.expiry_visits_est", float64(g.expiryVisits), "count")
	r.set("store.cache_inserts", float64(pr.tally.cacheInserts), "count")
	r.set("store.cache_evicts", float64(pr.tally.cacheEvicts), "count")

	// trace: the benchmark's spans plus the internal/trace tracer.
	var spans uint64
	for _, a := range agg {
		spans += a.calls
	}
	spans += pr.steps
	r.set("trace.events", float64(spans+pr.tally.events), "count")
	r.set("trace.dropped", float64(pr.lost+pr.tally.dropped), "count")
	r.set("trace.overhead_frac", t.runS/u.runS-1, "ratio")
	r.set("trace.self_s", secs(traceSelf), "s")

	// runtime, from the untraced run.
	r.set("runtime.gc_cycles", float64(u.gcCycles), "count")
	r.set("runtime.gc_cpu_s", u.gcCPUS, "s")
}
