package core

import (
	"fmt"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/wire"
)

// diamond wires the topology
//
//	1 (consumer A)   2 (consumer B)
//	  \             /
//	   3 (shared relay)
//	   |
//	   4 (producer)
func diamond(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := newHarness(t, cfg, 1, 2, 3, 4)
	h.links = map[[2]wire.NodeID]bool{
		{1, 3}: true, {3, 1}: true,
		{2, 3}: true, {3, 2}: true,
		{3, 4}: true, {4, 3}: true,
	}
	return h
}

// TestResponsesStayOnReverseTrees: a response must never be forwarded
// by a node that was not addressed under one of its Serves bindings —
// otherwise every relay would re-fork each response toward every
// lingering query and entries would flood the mesh once per consumer.
func TestResponsesStayOnReverseTrees(t *testing.T) {
	// Line topology with consumer at each end: 1 - 3 - 4 - 5 - 2.
	h := newHarness(t, DefaultConfig(), 1, 2, 3, 4, 5)
	h.line(1, 3, 4, 5, 2)
	for i := 0; i < 10; i++ {
		h.nodes[4].PublishEntry(testEntry(i))
	}
	// Tap: every response transmission must only be relayed by nodes
	// holding a role on it.
	perEntryTx := map[string]int{}
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		if msg.Type != wire.TypeResponse || msg.Response.Kind != wire.KindMetadata {
			return
		}
		if to != 1 && to != 2 { // count only per unique broadcast: tap fires per receiver
			return
		}
		if !containsID(msg.Response.Receivers, to) {
			return
		}
		for _, d := range msg.Response.Entries {
			perEntryTx[d.Key()]++
		}
	})
	done := 0
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done++ })
	h.nodes[2].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done++ })
	h.run(3 * time.Minute)
	if done != 2 {
		t.Fatal("discoveries did not finish")
	}
	// Each consumer's last hop should carry each entry exactly once:
	// once toward 1 and once toward 2.
	for k, c := range perEntryTx {
		if c > 2 {
			t.Fatalf("entry %x crossed consumer links %d times (flooding)", k, c)
		}
	}
}

// TestServeCoalescingJoinsSimultaneousQueries: two queries arriving at
// a producer within the response-jitter window are answered by one
// mixedcast pass whose response carries both roles.
func TestServeCoalescingJoinsSimultaneousQueries(t *testing.T) {
	h := diamond(t, DefaultConfig())
	for i := 0; i < 10; i++ {
		h.nodes[4].PublishEntry(testEntry(i))
	}
	var joint int
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		if from != 4 || to != 3 || msg.Type != wire.TypeResponse {
			return
		}
		qids := map[uint64]bool{}
		for _, sv := range msg.Response.Serves {
			qids[sv.QueryID] = true
		}
		if len(qids) >= 2 {
			joint++
		}
	})
	done := 0
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done++ })
	h.nodes[2].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done++ })
	h.run(3 * time.Minute)
	if done != 2 {
		t.Fatal("discoveries did not finish")
	}
	if joint == 0 {
		t.Fatal("producer never emitted a joint (two-query) mixedcast response")
	}
}

// TestRelayForksTowardBothConsumers: at the shared relay the joint
// response forks into roles toward both consumers, and both get all
// entries.
func TestRelayForksTowardBothConsumers(t *testing.T) {
	h := diamond(t, DefaultConfig())
	for i := 0; i < 10; i++ {
		h.nodes[4].PublishEntry(testEntry(i))
	}
	results := map[wire.NodeID]int{}
	done := 0
	for _, id := range []wire.NodeID{1, 2} {
		id := id
		h.nodes[id].Discover(testSel(), DiscoverOptions{}, func(r DiscoveryResult) {
			results[id] = len(r.Entries)
			done++
		})
	}
	h.run(3 * time.Minute)
	if done != 2 {
		t.Fatal("discoveries did not finish")
	}
	if results[1] != 10 || results[2] != 10 {
		t.Fatalf("consumers got %d and %d entries, want 10 and 10", results[1], results[2])
	}
}

// TestServeOncePerQuery: a node answers each query from its store once;
// a second serve pass (triggered by an unrelated later query) must not
// re-send entries toward the old query.
func TestServeOncePerQuery(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1, 2)
	h.line(1, 2)
	for i := 0; i < 10; i++ {
		h.nodes[2].PublishEntry(testEntry(i))
	}
	entryTx := 0
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		if from == 2 && msg.Type == wire.TypeResponse {
			entryTx += len(msg.Response.Entries)
		}
	})
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{}, func(DiscoveryResult) { done = true })
	h.run(2 * time.Minute)
	if !done {
		t.Fatal("discovery never finished")
	}
	// All 10 entries arrive in round 1; later rounds are pruned by the
	// consumer's Bloom filter, so total entry transmissions stay ~10.
	if entryTx > 12 {
		t.Fatalf("producer transmitted %d entry instances for 10 entries", entryTx)
	}
}

// TestHopLimitScopesFlood: with HopLimit 1 only direct neighbors
// answer.
func TestHopLimitScopesFlood(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1, 2, 3)
	h.line(1, 2, 3)
	h.nodes[2].PublishEntry(testEntry(0)) // 1 hop away
	h.nodes[3].PublishEntry(testEntry(1)) // 2 hops away
	var res DiscoveryResult
	done := false
	h.nodes[1].Discover(testSel(), DiscoverOptions{HopLimit: 1}, func(r DiscoveryResult) {
		res = r
		done = true
	})
	h.run(2 * time.Minute)
	if !done {
		t.Fatal("discovery never finished")
	}
	if len(res.Entries) != 1 {
		t.Fatalf("hop-limited discovery returned %d entries, want 1", len(res.Entries))
	}
	if !res.Entries[0].Equal(testEntry(0)) {
		t.Fatalf("wrong entry: %s", res.Entries[0])
	}
}

// TestServePassRematchesLaterRoutes: one producer serves three lingering
// queries in one pass. Entries e004/e005 match only the third route and
// e006–e009 match the second and third, so the candidates come in
// first-route order and the pass re-matches later routes against an
// entry whose first route is past 0.
func TestServePassRematchesLaterRoutes(t *testing.T) {
	h := newHarness(t, DefaultConfig(), 1, 2, 3, 9)
	h.links = map[[2]wire.NodeID]bool{}
	for _, id := range []wire.NodeID{1, 2, 3} {
		h.links[[2]wire.NodeID{id, 9}] = true
		h.links[[2]wire.NodeID{9, id}] = true
	}
	p := h.nodes[9]
	for i := 0; i < 10; i++ {
		p.PublishEntry(testEntry(i))
	}
	sels := []attr.Query{
		testSel().And(attr.Le(attr.AttrName, attr.String("e003"))),
		testSel().And(attr.Ge(attr.AttrName, attr.String("e006"))),
		testSel(),
	}
	for i, sel := range sels {
		id := wire.NodeID(i + 1)
		p.handleQuery(&wire.Query{
			ID: uint64(i + 1), Kind: wire.KindMetadata, TTL: time.Minute,
			Sender: id, Origin: id, HopsLeft: 1, Sel: sel,
		})
	}
	var got []string
	var serves []wire.Serve
	h.taps = append(h.taps, func(from, to wire.NodeID, msg *wire.Message) {
		if from != 9 || to != 1 || msg.Type != wire.TypeResponse {
			return
		}
		for _, d := range msg.Response.Entries {
			name, _ := d.Get(attr.AttrName)
			got = append(got, name.String())
		}
		serves = append(serves, msg.Response.Serves...)
	})
	h.run(10 * time.Second)

	want := `["e000" "e001" "e002" "e003" "e006" "e007" "e008" "e009" "e004" "e005"]`
	if fmt.Sprint(got) != want {
		t.Fatalf("served entries %v, want first-route order %s", got, want)
	}
	if len(serves) != 3 {
		t.Fatalf("serves %v, want one role per query", serves)
	}
	// Each route forwarded exactly its own matches: e006–e009 reached
	// route 2 only through the re-match past their first route.
	for ri, sel := range sels {
		lq, ok := p.lqt.Get(uint64(ri+1), h.eng.Now())
		if !ok {
			t.Fatalf("route %d query gone", ri)
		}
		for i := 0; i < 10; i++ {
			d := testEntry(i)
			if lq.AlreadyForwarded(d.Key()) != sel.Match(d) {
				t.Fatalf("route %d: e%03d forwarded=%v, selector match=%v", ri, i, lq.AlreadyForwarded(d.Key()), sel.Match(d))
			}
		}
	}
}
