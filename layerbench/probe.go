package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pds/internal/clock"
	"pds/internal/sim"
	"pds/internal/trace"
	"pds/internal/wire"
)

// spanKind names one layer boundary the benchmark records.
type spanKind uint8

const (
	spanStep        spanKind = iota // root: one engine event
	spanCoreTimer                   // core-owned timer callback
	spanLinkTimer                   // link-owned timer callback
	spanBenchTimer                  // benchmark-owned event
	spanLinkRx                      // radio delivery → link.HandleIncoming
	spanCoreRx                      // delivery → core.HandleMessage
	spanLinkTx                      // core Sender → link.Send
	spanRadioSend                   // link RawSender → Radio.Send
	spanLinkNotify                  // Radio.OnTransmitted → link.NotifyTransmitted
	spanCoreGiveUp                  // Link.OnGiveUp → core.OnSendFailure
	spanCoreAPI                     // benchmark → core (Discover, Retrieve)
	spanRadioMove                   // benchmark mobility → Medium.SetPositions
	spanTraceSample                 // gauge sample and tracer tally
	numSpanKinds
	spanNone spanKind = 255 // no owner-tagged timer ran: a radio event
)

var spanNames = [numSpanKinds]string{
	"sim.step", "core.timer", "link.timer", "bench.timer", "link.rx", "core.rx",
	"link.tx", "radio.send", "link.notify", "core.giveup", "core.api", "radio.move",
	"trace.sample",
}

// wireClass partitions the frames handed to Radio.Send.
type wireClass uint8

const (
	clsQuery wireClass = iota
	clsMetadata
	clsCDI
	clsChunk
	clsData
	clsAck
	clsAdvert
	clsRetransmit // a TransmitID the radio already accepted once
	numWireClasses
)

var wireClassNames = [numWireClasses]string{
	"query", "metadata", "cdi", "chunk", "data", "ack", "advert", "retransmit",
}

// classify returns the class of a first transmission. Fragments are
// classed by the message they carry. ok is false for a frame outside
// the known classes.
func classify(m *wire.Message) (c wireClass, ok bool) {
	if m.Type == wire.TypeFragment && m.Fragment != nil && m.Fragment.Whole != nil {
		m = m.Fragment.Whole
	}
	switch {
	case m.Type == wire.TypeAck:
		return clsAck, true
	case m.Type == wire.TypeQuery && m.Query != nil:
		if m.Query.Kind == wire.KindAdvert {
			return clsAdvert, true
		}
		return clsQuery, true
	case m.Type == wire.TypeResponse && m.Response != nil:
		switch m.Response.Kind {
		case wire.KindMetadata:
			return clsMetadata, true
		case wire.KindCDI:
			return clsCDI, true
		case wire.KindChunk:
			return clsChunk, true
		case wire.KindData:
			return clsData, true
		case wire.KindAdvert:
			return clsAdvert, true
		}
	}
	return 0, false
}

// span is one recorded boundary crossing. Times are nanoseconds since
// the probe was created; parent is the id of the enclosing span (the
// engine step for top-level spans, 0 outside any step).
type span struct {
	id, parent uint32
	kind       spanKind
	start, end int64
}

type frame struct {
	kind  spanKind
	id    uint32
	start int64
	child int64 // time covered by finished child spans
}

type spanAgg struct {
	calls       uint64
	total, self int64
}

// maxKeptSpans bounds the spans kept for the span file; aggregates
// cover every span regardless.
const maxKeptSpans = 1 << 18

// probe is the traced run's recorder. It keeps spans in memory, folds
// them into per-kind call counts and self times as they close, counts
// engine events by owning layer, classes every accepted frame, samples
// gauges on the gauge event, and tallies the internal/trace tracer.
type probe struct {
	base  time.Time
	stack []frame
	agg   [numSpanKinds]spanAgg
	spans []span
	lost  uint64 // spans not kept (beyond maxKeptSpans)
	ids   uint32

	// Engine steps, delimited by stop-predicate evaluations.
	last      int64 // -1 before the first boundary
	curStep   uint32
	rootChild int64
	stepOwner spanKind
	steps     uint64
	// Step self time (step minus its top-level spans), split by whether
	// an owner-tagged callback ran (dispatch cost only) or not (radio
	// events, whose work runs directly on the engine).
	wrappedSelf, radioStepSelf int64
	wrappedSteps, radioSteps   uint64

	events  [numSpanKinds]uint64 // executed events by owner timer kind
	cancels uint64

	frames, bytes [numWireClasses]uint64
	unclassed     uint64
	seenTX        map[uint64]struct{}

	tracer *trace.Tracer
	tally  tracerTally

	gauges gauges
}

// tracerTally sums the internal/trace events of the run.
type tracerTally struct {
	events, dropped           uint64
	airtime                   time.Duration
	bloom, mixedcast, lqMatch uint64
	cacheInserts, cacheEvicts uint64
}

// gauges are sampled on every gauge event and at the end of the run.
type gauges struct {
	pendingMax                     int
	radioQueuedMax, linkQueuedMax  int
	pendingAcksMax                 int
	entriesLiveMax, entriesLiveEnd int
	lqtLiveMax                     int
	expiryVisits                   uint64
	chunksCachedEnd                int
}

func newProbe() *probe {
	return &probe{
		base:   time.Now(),
		last:   -1,
		spans:  make([]span, 0, 1<<12),
		seenTX: make(map[uint64]struct{}),
	}
}

func (p *probe) now() int64 { return int64(time.Since(p.base)) }

// attach binds the probe to a freshly created world.
func (p *probe) attach(w *world) {
	p.tracer = trace.New(w.eng.Now, 0)
	w.medium.Tracer = p.tracer
}

// begin opens a span of kind k nested in whatever span is open.
func (p *probe) begin(k spanKind) {
	p.ids++
	p.stack = append(p.stack, frame{kind: k, id: p.ids, start: p.now()})
}

// end closes the innermost open span.
func (p *probe) end() {
	t := p.now()
	n := len(p.stack) - 1
	f := p.stack[n]
	p.stack = p.stack[:n]
	d := t - f.start
	a := &p.agg[f.kind]
	a.calls++
	a.total += d
	a.self += d - f.child
	parent := p.curStep
	if n > 0 {
		p.stack[n-1].child += d
		parent = p.stack[n-1].id
	} else {
		p.rootChild += d
		if f.kind == spanCoreTimer || f.kind == spanLinkTimer || f.kind == spanBenchTimer {
			p.stepOwner = f.kind
		}
	}
	p.keep(span{id: f.id, parent: parent, kind: f.kind, start: f.start, end: t})
}

func (p *probe) keep(s span) {
	if len(p.spans) < maxKeptSpans {
		p.spans = append(p.spans, s)
	} else {
		p.lost++
	}
}

// stepBoundary is called from the engine's stop predicate, which the
// engine evaluates before the first event and after every event: the
// interval since the previous call is one engine step (the root span).
func (p *probe) stepBoundary() {
	t := p.now()
	if p.last >= 0 {
		d := t - p.last
		self := d - p.rootChild
		if p.stepOwner == spanNone {
			p.radioStepSelf += self
			p.radioSteps++
		} else {
			p.wrappedSelf += self
			p.wrappedSteps++
		}
		p.steps++
		p.keep(span{id: p.curStep, kind: spanStep, start: p.last, end: t})
	}
	p.ids++
	p.curStep = p.ids
	p.last = t
	p.rootChild = 0
	p.stepOwner = spanNone
}

// finishSteps ends step accounting when the engine loop returns; the
// step opened by the final predicate evaluation never ran.
func (p *probe) finishSteps() {
	p.last = -1
	p.rootChild = 0
	p.curStep = 0
}

// clockFor returns a clock that schedules on eng and runs each callback
// as a top-level span of kind k, counting the event for its owner.
func (p *probe) clockFor(eng *sim.Engine, k spanKind) clock.Clock {
	return &ownerClock{eng: eng, p: p, kind: k}
}

type ownerClock struct {
	eng  *sim.Engine
	p    *probe
	kind spanKind
}

func (c *ownerClock) Now() time.Duration { return c.eng.Now() }

func (c *ownerClock) Schedule(delay time.Duration, fn func()) func() {
	var fired, cancelled bool
	cancel := c.eng.Schedule(delay, func() {
		fired = true
		c.p.events[c.kind]++
		c.p.begin(c.kind)
		fn()
		c.p.end()
	})
	return func() {
		if !fired && !cancelled {
			cancelled = true
			c.p.cancels++
		}
		cancel()
	}
}

// frame classes one frame Radio.Send accepted.
func (p *probe) frame(m *wire.Message) {
	size := uint64(wire.EncodedSize(m))
	c, ok := classify(m)
	if !ok {
		p.unclassed++
		return
	}
	if _, again := p.seenTX[m.TransmitID]; again {
		c = clsRetransmit
	} else {
		p.seenTX[m.TransmitID] = struct{}{}
	}
	p.frames[c]++
	p.bytes[c] += size
}

// tick is the gauge event's traced work, a span of its own so that
// sampling cost shows as trace self time.
func (p *probe) tick(w *world) {
	p.begin(spanTraceSample)
	p.sample(w)
	p.end()
}

// sample reads every gauge and hands the layers a fresh tracer, tallying
// the one they filled since the previous sample, so tracer memory stays
// bounded by one gauge period of events.
func (p *probe) sample(w *world) {
	g := &p.gauges
	now := w.eng.Now()
	g.pendingMax = max(g.pendingMax, w.eng.Pending())
	live, lqt := 0, 0
	for _, pe := range w.peers {
		g.radioQueuedMax = max(g.radioQueuedMax, pe.radio.QueuedBytes())
		g.linkQueuedMax = max(g.linkQueuedMax, pe.link.QueuedBytes())
		g.pendingAcksMax = max(g.pendingAcksMax, pe.link.PendingAcks())
		live += pe.node.Store().EntryCount(now)
		lqt += pe.node.LQTLen()
	}
	g.entriesLiveMax = max(g.entriesLiveMax, live)
	g.entriesLiveEnd = live
	g.lqtLiveMax = max(g.lqtLiveMax, lqt)
	g.expiryVisits += uint64(live)
	p.swapTracer(w)
}

// swapTracer tallies the current tracer and installs a fresh one.
func (p *probe) swapTracer(w *world) {
	p.tallyTracer()
	p.tracer = trace.New(w.eng.Now, 0)
	w.medium.Tracer = p.tracer
	for _, pe := range w.peers {
		nt := p.tracer.ForNode(pe.id)
		pe.link.SetTracer(nt)
		pe.node.SetTracer(nt)
	}
}

func (p *probe) tallyTracer() {
	t := &p.tally
	t.dropped += p.tracer.Dropped()
	for _, ev := range p.tracer.Events() {
		t.events++
		switch ev.Kind {
		case trace.FrameTx:
			t.airtime += time.Duration(ev.Val)
		case trace.BloomSuppress:
			t.bloom++
		case trace.MixedcastMerge:
			t.mixedcast++
		case trace.LQMatch:
			t.lqMatch++
		case trace.CacheInsert:
			t.cacheInserts++
		case trace.CacheEvict:
			t.cacheEvicts++
		}
	}
}

// finish takes the closing gauge sample and the final tracer tally, and
// counts the item's cached chunk copies: those held beyond the
// published ones.
func (p *probe) finish(w *world, item string, published int) {
	p.sample(w)
	if item != "" {
		held := 0
		for _, pe := range w.peers {
			held += len(pe.node.Store().ChunksHeld(item))
		}
		p.gauges.chunksCachedEnd = held - published
	}
}

// writeSpans writes the kept spans as gzipped TSV: id, parent, kind,
// start_ns, end_ns.
func (p *probe) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintf(bw, "id\tparent\tkind\tstart_ns\tend_ns\n")
	for _, s := range p.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
