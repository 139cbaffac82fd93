package main

import (
	"math/rand"
	"time"

	"pds/internal/clock"
	"pds/internal/core"
	"pds/internal/link"
	"pds/internal/radio"
	"pds/internal/sim"
	"pds/internal/wire"
)

// gaugePeriod is the simulated period of the benchmark-owned gauge
// event. It matches the per-node housekeeping tick, so live entries
// summed over gauge samples estimate the entries expiry visits.
const gaugePeriod = time.Second

// peer is one node's protocol engine, link layer and radio.
type peer struct {
	id    wire.NodeID
	node  *core.Node
	link  *link.Link
	radio *radio.Radio
}

// world is one simulated deployment built from the layers' public
// constructors. Peers are wired exactly as scenario.Deployment.AddPeer
// wires them; with a probe attached, every boundary between layers is
// additionally wrapped in a span, which changes no simulated behaviour.
type world struct {
	eng    *sim.Engine
	medium *radio.Medium
	peers  []*peer // peers[i] has id i+1
	seed   int64
	linkC  link.Config
	coreC  core.Config
	probe  *probe // nil for untraced runs
	// bench schedules the benchmark's own events (gauges, mobility,
	// open-loop consumers); under a probe it tags them as "bench".
	bench clock.Clock
}

// newWorld creates an empty deployment with the paper's default radio,
// link and core settings, and starts the gauge event.
func newWorld(seed int64, pr *probe) *world {
	eng := sim.NewEngine(seed)
	w := &world{
		eng:    eng,
		medium: radio.NewMedium(eng, radio.DefaultConfig()),
		seed:   seed,
		linkC:  link.DefaultConfig(nil),
		coreC:  core.DefaultConfig(),
		probe:  pr,
		bench:  eng,
	}
	w.linkC.Jitter = func(max time.Duration) time.Duration {
		if max <= 0 {
			return 0
		}
		return time.Duration(eng.Rand().Int63n(int64(max)))
	}
	if pr != nil {
		pr.attach(w)
		w.bench = pr.clockFor(eng, spanBenchTimer)
	}
	var tick func()
	tick = func() {
		if w.probe != nil {
			w.probe.tick(w)
		}
		w.bench.Schedule(gaugePeriod, tick)
	}
	w.bench.Schedule(gaugePeriod, tick)
	return w
}

// peerByID returns the peer with the given id.
func (w *world) peerByID(id wire.NodeID) *peer { return w.peers[id-1] }

// addPeer creates the next node (ids are dense from 1) at pos.
func (w *world) addPeer(pos radio.Pos) *peer {
	id := wire.NodeID(len(w.peers) + 1)
	p := &peer{id: id}
	rng := rand.New(rand.NewSource(w.seed ^ (int64(id)+1)*0x5851f42d4c957f2d))
	if pr := w.probe; pr != nil {
		w.addTracedPeer(p, pos, rng, pr)
	} else {
		p.radio = w.medium.Attach(id, pos, func(msg *wire.Message) {
			if up := p.link.HandleIncoming(msg); up != nil {
				p.node.HandleMessage(up)
			}
		})
		p.link = link.New(w.eng, id, p.radio.Send, w.linkC)
		p.link.EnableTransmitNotify()
		p.radio.OnTransmitted = p.link.NotifyTransmitted
		p.node = core.NewNode(id, w.eng, rng, func(msg *wire.Message) { p.link.Send(msg) }, w.coreC)
		p.link.OnGiveUp = p.node.OnSendFailure
	}
	w.peers = append(w.peers, p)
	return p
}

// addTracedPeer is addPeer's wiring with a span around every call that
// crosses a layer boundary: delivery (radio → link → core), sends (core
// → link → radio), transmit notification, give-ups, and the layers'
// own timers through owner-tagged clocks.
func (w *world) addTracedPeer(p *peer, pos radio.Pos, rng *rand.Rand, pr *probe) {
	p.radio = w.medium.Attach(p.id, pos, func(msg *wire.Message) {
		pr.begin(spanLinkRx)
		up := p.link.HandleIncoming(msg)
		pr.end()
		if up != nil {
			pr.begin(spanCoreRx)
			p.node.HandleMessage(up)
			pr.end()
		}
	})
	raw := func(msg *wire.Message) bool {
		pr.begin(spanRadioSend)
		ok := p.radio.Send(msg)
		pr.end()
		if ok {
			pr.frame(msg)
		}
		return ok
	}
	p.link = link.New(pr.clockFor(w.eng, spanLinkTimer), p.id, raw, w.linkC)
	p.link.EnableTransmitNotify()
	p.radio.OnTransmitted = func(msg *wire.Message) {
		pr.begin(spanLinkNotify)
		p.link.NotifyTransmitted(msg)
		pr.end()
	}
	send := func(msg *wire.Message) {
		pr.begin(spanLinkTx)
		p.link.Send(msg)
		pr.end()
	}
	p.node = core.NewNode(p.id, pr.clockFor(w.eng, spanCoreTimer), rng, send, w.coreC)
	p.link.OnGiveUp = func(msg *wire.Message, unacked []wire.NodeID) {
		pr.begin(spanCoreGiveUp)
		p.node.OnSendFailure(msg, unacked)
		pr.end()
	}
	nt := pr.tracer.ForNode(p.id)
	p.link.SetTracer(nt)
	p.node.SetTracer(nt)
}

// api runs fn — a call from benchmark code into the core layer — under
// a core span when traced.
func (w *world) api(fn func()) {
	if w.probe == nil {
		fn()
		return
	}
	w.probe.begin(spanCoreAPI)
	fn()
	w.probe.end()
}

// runUntil drives the engine until done reports true or the deadline
// passes. Under a probe, every evaluation of the stop predicate closes
// one engine step: the gap between successive evaluations is one event.
func (w *world) runUntil(deadline time.Duration, done func() bool) {
	if pr := w.probe; pr != nil {
		w.eng.RunUntil(deadline, func() bool {
			pr.stepBoundary()
			return done()
		})
		pr.finishSteps()
		return
	}
	w.eng.RunUntil(deadline, done)
}
