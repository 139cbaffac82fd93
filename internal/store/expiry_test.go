package store_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"pds/internal/attr"
	"pds/internal/store"
	"pds/internal/trace"
	"pds/internal/wire"
)

func desc(i int) attr.Descriptor {
	return attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String("env")).
		Set(attr.AttrName, attr.String(fmt.Sprintf("e%d", i)))
}

// memBackend is an in-memory durable tier with a persistent cache: a
// power-off keeps cached records, so Recover brings them back spilled.
// It refuses cached payloads of odd length, so evicting those drops
// the bytes (and unpins the entry) instead of spilling them.
type memBackend struct {
	recs map[string]memRecord
}

type memRecord struct {
	d                 attr.Descriptor
	payload           []byte
	hasPayload, owned bool
}

func newMemBackend() *memBackend { return &memBackend{recs: make(map[string]memRecord)} }

func (b *memBackend) PutEntry(d attr.Descriptor) {
	b.recs[d.Key()] = memRecord{d: d, owned: true}
}

func (b *memBackend) PutPayload(d attr.Descriptor, payload []byte, owned bool) bool {
	if !owned && len(payload)%2 == 1 {
		return false
	}
	b.recs[d.Key()] = memRecord{d: d, payload: payload, hasPayload: true, owned: owned}
	return true
}

func (b *memBackend) GetPayload(key string) ([]byte, bool) {
	r, ok := b.recs[key]
	return r.payload, ok && r.hasPayload
}

func (b *memBackend) HasPayload(key string) bool { return b.recs[key].hasPayload }

func (b *memBackend) DeletePayload(key string) { delete(b.recs, key) }

func (b *memBackend) WipeCached() {}

func (b *memBackend) Restore(fn func(d attr.Descriptor, payload []byte, hasPayload, owned bool)) {
	keys := make([]string, 0, len(b.recs))
	for k := range b.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r := b.recs[k]
		fn(r.d, r.payload, r.hasPayload, r.owned)
	}
}

// tables is one node's four expiring tables, traced.
type tables struct {
	ds  *store.DataStore
	lqt *store.LQT
	rr  *store.RecentResponses
	cdi *store.CDITable
	now *time.Duration
	tr  *trace.Tracer
}

func newTables(now *time.Duration, policy store.CachePolicy, backend bool) *tables {
	w := &tables{
		ds:  store.NewDataStore(24),
		lqt: store.NewLQT(),
		rr:  store.NewRecentResponses(5 * time.Second),
		cdi: store.NewCDITable(),
		now: now,
	}
	w.ds.SetCachePolicy(policy)
	if backend {
		w.ds.SetBackend(newMemBackend())
	}
	w.retrace()
	return w
}

// retrace installs a fresh tracer, so the next dump renders only the
// events emitted from here on.
func (w *tables) retrace() {
	w.tr = trace.New(func() time.Duration { return *w.now }, 0)
	nt := w.tr.ForNode(1)
	w.ds.SetTracer(nt)
	w.lqt.SetTracer(nt)
}

// tick runs one housekeeping pass, in the node's order. full forces
// every table to scan, as a table without a watermark would.
func (w *tables) tick(now time.Duration, full bool) string {
	if full {
		w.ds.ForceScan()
		w.cdi.ForceScan()
		w.lqt.ForceScan()
		w.rr.ForceScan()
	}
	a := w.ds.Expire(now)
	b := w.cdi.Expire(now)
	c := w.lqt.Expire(now)
	w.rr.Prune(now)
	return fmt.Sprintf("removed ds=%d cdi=%d lqt=%d", a, b, c)
}

// dump renders the tables' contents and the trace events emitted since
// the previous dump.
func (w *tables) dump() string {
	var b strings.Builder
	b.WriteString(w.ds.Dump())
	b.WriteString(w.cdi.Dump())
	b.WriteString(w.lqt.Dump())
	b.WriteString(w.rr.Dump())
	for _, ev := range w.tr.Events() {
		fmt.Fprintf(&b, "event %v %s msg=%d size=%d note=%s\n", ev.T, ev.Kind, ev.Msg, ev.Size, ev.Note)
	}
	w.retrace()
	return b.String()
}

// checkWatermarks reports every record the watermark rule does not
// cover: one that its table's Expire or Prune could remove, once due,
// expiring below the table's watermark.
func (w *tables) checkWatermarks() string {
	var b strings.Builder
	if ks := w.ds.BelowWatermark(); len(ks) > 0 {
		fmt.Fprintf(&b, "data store entries below the watermark: %v\n", ks)
	}
	if ids := w.lqt.BelowWatermark(); len(ids) > 0 {
		fmt.Fprintf(&b, "LQT queries below the watermark: %v\n", ids)
	}
	if ids := w.rr.BelowWatermark(); len(ids) > 0 {
		fmt.Fprintf(&b, "recent responses below the watermark: %v\n", ids)
	}
	if es := w.cdi.BelowWatermark(); len(es) > 0 {
		fmt.Fprintf(&b, "CDI entries below the watermark: %v\n", es)
	}
	return b.String()
}

// randomOp draws one table operation. Keys, ids and neighbors come
// from small pools so that inserts collide: refreshes, extensions,
// upgrades, LQT re-inserts with earlier or later expiries.
func randomOp(rng *rand.Rand, now time.Duration) func(*tables) {
	ttl := time.Duration(rng.Intn(12000)) * time.Millisecond
	k := rng.Intn(24)
	d := desc(k)
	if rng.Intn(3) == 0 {
		d = desc(k % 6).WithChunk(k / 6)
	}
	payload := make([]byte, 3+rng.Intn(7))
	for i := range payload {
		payload[i] = byte(k)
	}
	switch op := rng.Intn(100); {
	case op < 22:
		return func(w *tables) { w.ds.PutCached(d, now+ttl) }
	case op < 26:
		return func(w *tables) { w.ds.PutOwned(d) }
	case op < 44:
		// Callers stamp each call with their own clock reading; some
		// inserts carry one older than the last tick. That is the one
		// way eviction can unpin an entry that is already expired:
		// with a current reading, purgeExpired drops expired payloads
		// before evictOne runs.
		at := now
		if rng.Intn(4) == 0 {
			at = max(0, now-time.Duration(rng.Intn(3000))*time.Millisecond)
		}
		return func(w *tables) { w.ds.PutPayloadCached(d, payload, at, at+ttl) }
	case op < 46:
		return func(w *tables) { w.ds.PutPayloadOwned(d, payload) }
	case op < 50:
		return func(w *tables) { w.ds.Payload(d) }
	case op < 51:
		return func(w *tables) { w.ds.DeleteOwned(d) }
	case op < 52:
		return func(w *tables) { w.ds.WipeCached() }
	case op < 54:
		lease := time.Duration(rng.Intn(4000)) * time.Millisecond
		return func(w *tables) {
			w.ds.PowerOff()
			w.ds.Recover(now, lease)
		}
	case op < 66:
		id := uint64(rng.Intn(16))
		return func(w *tables) {
			w.lqt.Insert(&wire.Query{ID: id, Kind: wire.KindMetadata, Sel: attr.NewQuery()}, now+ttl)
		}
	case op < 69:
		id := uint64(rng.Intn(16))
		return func(w *tables) { w.lqt.Remove(id) }
	case op < 80:
		id := uint64(rng.Intn(16))
		return func(w *tables) { w.rr.Seen(id, now) }
	case op < 94:
		e := store.CDIEntry{ChunkID: rng.Intn(4), HopCount: rng.Intn(3), Neighbor: wire.NodeID(1 + rng.Intn(4)), ExpireAt: now + ttl}
		item := fmt.Sprintf("item%d", rng.Intn(3))
		return func(w *tables) { w.cdi.Update(item, e) }
	case op < 97:
		item := fmt.Sprintf("item%d", rng.Intn(3))
		nb := wire.NodeID(1 + rng.Intn(4))
		return func(w *tables) { w.cdi.DropNeighbor(item, nb) }
	default:
		nb := wire.NodeID(1 + rng.Intn(4))
		return func(w *tables) { w.cdi.DropNeighborAll(nb) }
	}
}

// TestWatermarkMatchesFullScan drives the four expiring tables with
// random operations between 1 s housekeeping ticks, once with the
// expiry watermark and once with a full scan forced on every tick.
// After every tick the removal counts, the contents and the whole trace
// (LQTExpire order included) must be identical, and every record the
// tables could reap must expire at or above its table's watermark.
func TestWatermarkMatchesFullScan(t *testing.T) {
	policies := []store.CachePolicy{store.EvictFIFO, store.EvictLRU, store.EvictLFU}
	var skipped, reaped int
	for seed := int64(1); seed <= 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var now time.Duration
		backend := seed%2 == 0
		policy := policies[seed%3]
		water := newTables(&now, policy, backend)
		full := newTables(&now, policy, backend)
		for sec := 1; sec <= 240; sec++ {
			for i := rng.Intn(8); i > 0; i-- {
				now = time.Duration(sec-1)*time.Second + time.Duration(rng.Intn(1000))*time.Millisecond
				op := randomOp(rng, now)
				op(water)
				op(full)
				if bad := water.checkWatermarks(); bad != "" {
					t.Fatalf("seed %d at %v: after an operation:\n%s", seed, now, bad)
				}
			}
			now = time.Duration(sec) * time.Second
			got, want := water.tick(now, false), full.tick(now, true)
			if got != want {
				t.Fatalf("seed %d tick %v: watermark %s, full scan %s", seed, now, got, want)
			}
			if g, w := water.dump(), full.dump(); g != w {
				t.Fatalf("seed %d tick %v: contents differ\nwatermark:\n%s\nfull scan:\n%s", seed, now, g, w)
			}
			if bad := water.checkWatermarks(); bad != "" {
				t.Fatalf("seed %d tick %v: after the tick:\n%s", seed, now, bad)
			}
			if got != "removed ds=0 cdi=0 lqt=0" {
				reaped++
			}
		}
		skipped += 4*240 - (water.ds.Scans() + water.lqt.Scans() + water.cdi.Scans() + water.rr.Scans())
	}
	// The run must exercise both sides: ticks that reap and table
	// passes the watermark skips.
	if reaped == 0 || skipped == 0 {
		t.Fatalf("reaping ticks %d, skipped passes %d: the drive exercises nothing", reaped, skipped)
	}
}

// TestExpiryWorkBound pins the work the watermark saves: tables that
// take a batch every 60 s with a 5 min lifetime, ticked every second
// for 15 simulated minutes, scan once per distinct reap tick (at 300 s,
// 360 s, ..., 900 s) instead of 900 times.
func TestExpiryWorkBound(t *testing.T) {
	const (
		lifetime = 5 * time.Minute
		horizon  = 15 * time.Minute
	)
	ds := store.NewDataStore(0)
	lqt := store.NewLQT()
	rr := store.NewRecentResponses(lifetime)
	cdi := store.NewCDITable()
	id := 0
	for now := time.Duration(0); now <= horizon; now += time.Second {
		if now%time.Minute == 0 {
			for i := 0; i < 20; i++ {
				id++
				ds.PutCached(desc(id), now+lifetime)
				lqt.Insert(&wire.Query{ID: uint64(id), Kind: wire.KindMetadata, Sel: attr.NewQuery()}, now+lifetime)
				rr.Seen(uint64(id), now)
				cdi.Update(fmt.Sprintf("item%d", id), store.CDIEntry{ChunkID: i, HopCount: 1, Neighbor: 2, ExpireAt: now + lifetime})
			}
		}
		if now > 0 {
			ds.Expire(now)
			cdi.Expire(now)
			lqt.Expire(now)
			rr.Prune(now)
		}
	}
	const reapTicks = 11 // 300 s, 360 s, ..., 900 s
	for name, scans := range map[string]int{
		"DataStore": ds.Scans(), "LQT": lqt.Scans(), "RecentResponses": rr.Scans(), "CDITable": cdi.Scans(),
	} {
		if scans != reapTicks {
			t.Errorf("%s made %d full scans over 900 ticks, want %d (one per reap tick)", name, scans, reapTicks)
		}
	}
	// The batches from 660 s on are still live; the rest were reaped.
	if got, want := lqt.Len(), 5*20; got != want {
		t.Errorf("LQT holds %d queries, want %d", got, want)
	}
	if got, want := ds.EntryCount(horizon), 5*20; got != want {
		t.Errorf("data store holds %d live entries, want %d", got, want)
	}
}

// TestPinnedEntryDoesNotForceScans: an expired entry kept alive by a
// held payload is left out of the watermark, so it costs one scan, not
// one per tick; once eviction drops its payload, the next tick reaps
// it.
func TestPinnedEntryDoesNotForceScans(t *testing.T) {
	ds := store.NewDataStore(8)
	pinned := desc(1)
	ds.PutPayloadCached(pinned, []byte{1, 2, 3, 4}, 0, 10*time.Second)
	for now := time.Second; now <= 100*time.Second; now += time.Second {
		ds.Expire(now)
	}
	if got := ds.Scans(); got != 1 {
		t.Fatalf("%d full scans over 100 ticks with one pinned entry, want 1", got)
	}
	if !ds.HasPayload(pinned) {
		t.Fatal("pinned entry's payload lost")
	}
	// Evicting its payload unpins the expired entry: the store must
	// scan again at the next tick and reap it. An insert stamped at or
	// after the entry's expiry would purge it outright (purgeExpired),
	// so this one carries an older clock reading, 5 s.
	ds2 := store.NewDataStore(8)
	ds2.PutPayloadCached(pinned, []byte{1, 2, 3, 4}, 0, 10*time.Second)
	for now := time.Second; now <= 20*time.Second; now += time.Second {
		ds2.Expire(now)
	}
	ds2.PutPayloadCached(desc(2), []byte{5, 6, 7, 8, 9, 10}, 5*time.Second, time.Hour)
	if ds2.HasPayload(pinned) {
		t.Fatal("FIFO eviction kept the pinned payload")
	}
	scans := ds2.Scans()
	if n := ds2.Expire(21 * time.Second); n != 1 {
		t.Fatalf("tick after the eviction removed %d entries, want the unpinned one", n)
	}
	if ds2.Scans() != scans+1 {
		t.Fatal("eviction did not lower the watermark")
	}
}
