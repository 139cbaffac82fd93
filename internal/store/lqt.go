package store

import (
	"slices"
	"sort"
	"time"

	"pds/internal/attr"
	"pds/internal/bloom"
	"pds/internal/trace"
	"pds/internal/wire"
)

// LingeringQuery is one entry of the Lingering Query Table (§III-A): a
// received query that stays until expiration and keeps directing
// matching responses back toward its sender. Bloom holds this node's
// private copy of the filter received with the query, rewritten en route
// as entries are forwarded (§III-B.2); Query stays shared and read-only.
type LingeringQuery struct {
	Query    *wire.Query
	ExpireAt time.Duration
	Bloom    *bloom.Filter
	// Served marks that this node has answered the query from its own
	// store (Algorithm 1's DS-lookup response happens once per query;
	// the lingering entry keeps steering *relayed* responses after).
	Served bool
	// Exhausted marks a one-shot (non-lingering) query that has steered
	// its single response. It stays in the table so redundant flood
	// copies are still recognized (removing it outright would let every
	// later copy reinsert and re-flood the query forever), but it no
	// longer serves or relays anything.
	Exhausted bool
	// Wanted is this node's private copy of a chunk query's still-wanted
	// chunk ids. The chunk relay plane consumes it as payloads pass by
	// (each chunk travels each reverse edge at most once per consumer
	// chain); Query.ChunkIDs stays frozen with the shared message, like
	// Bloom above.
	Wanted []int
	// forwarded records the entry keys this node has already sent
	// toward the query (served or relayed). Unlike the query's Bloom
	// filter — which is sized for the wire and can saturate under
	// en-route insertion — this local set is exact, so a duplicate copy
	// arriving via another branch is never re-forwarded. Without it a
	// saturated wire filter fails open and overlapping reverse trees
	// amplify every entry into a mesh-wide storm.
	forwarded map[string]bool
}

// AlreadyForwarded reports whether this node previously forwarded the
// entry key toward the query.
func (lq *LingeringQuery) AlreadyForwarded(key string) bool {
	return lq.forwarded[key]
}

// MarkForwarded records that the entry key has been sent toward the
// query from this node.
func (lq *LingeringQuery) MarkForwarded(key string) {
	if lq.forwarded == nil {
		lq.forwarded = make(map[string]bool)
	}
	lq.forwarded[key] = true
}

// LQT is the Lingering Query Table. Queries are keyed by their globally
// unique id; redundant copies are detected and dropped.
type LQT struct {
	queries map[uint64]*LingeringQuery
	// tr records LQT insert/expire trace events; nil is free.
	tr *trace.NodeTracer
	// nextExpiry is the expiry watermark: no query expires before it.
	// Expire recomputes it on each full scan; Insert lowers it.
	nextExpiry time.Duration
	scans      int      // full Expire scans, read by tests
	expired    []uint64 // Expire's reused id buffer
}

// NewLQT returns an empty table.
func NewLQT() *LQT {
	return &LQT{queries: make(map[uint64]*LingeringQuery), nextExpiry: never}
}

// SetTracer installs a node-bound tracer for LQT events. A nil tracer
// disables them.
func (t *LQT) SetTracer(tr *trace.NodeTracer) { t.tr = tr }

// Exists reports whether an unexpired query with the id lingers.
func (t *LQT) Exists(id uint64, now time.Duration) bool {
	lq, ok := t.queries[id]
	return ok && lq.ExpireAt > now
}

// Insert adds a query, replacing any previous copy with the same id.
// The query itself is referenced, not copied — delivered queries are
// immutable and may be shared by every node that heard the same frame —
// but the mutable per-node state is cloned: the Bloom filter (the table
// rewrites its copy as entries are forwarded, §III-B.2) and the chunk
// wanted set (consumed as payloads relay through). Mutating the query's
// own fields would corrupt the shared message for every other holder.
func (t *LQT) Insert(q *wire.Query, expireAt time.Duration) *LingeringQuery {
	lq := &LingeringQuery{Query: q, ExpireAt: expireAt}
	if q.Bloom != nil {
		lq.Bloom = q.Bloom.Clone()
	}
	if len(q.ChunkIDs) > 0 {
		lq.Wanted = append([]int(nil), q.ChunkIDs...)
	}
	t.queries[q.ID] = lq
	t.nextExpiry = min(t.nextExpiry, expireAt)
	t.tr.LQTInsert(q.ID)
	return lq
}

// Get returns the lingering query with the id, if unexpired.
func (t *LQT) Get(id uint64, now time.Duration) (*LingeringQuery, bool) {
	lq, ok := t.queries[id]
	if !ok || lq.ExpireAt <= now {
		return nil, false
	}
	return lq, true
}

// MatchEntry returns the unexpired lingering queries of the given kind
// whose selector matches the descriptor and whose Bloom filter does not
// already contain it. This is the per-entry mixedcast test of §III-B.1:
// an entry is forwarded iff at least one downstream consumer still wants
// it. Results are sorted by query id for determinism.
func (t *LQT) MatchEntry(kind wire.QueryKind, d attr.Descriptor, now time.Duration) []*LingeringQuery {
	key := d.Key()
	var out []*LingeringQuery
	for _, lq := range t.queries {
		if lq.ExpireAt <= now || lq.Query.Kind != kind {
			continue
		}
		if !lq.Query.Sel.Match(d) {
			continue
		}
		if lq.Bloom != nil && !lq.Bloom.Overloaded() && lq.Bloom.Contains(key) {
			continue
		}
		out = append(out, lq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query.ID < out[j].Query.ID })
	return out
}

// AllOfKind returns the unexpired lingering queries of the kind,
// sorted by query id.
func (t *LQT) AllOfKind(kind wire.QueryKind, now time.Duration) []*LingeringQuery {
	var out []*LingeringQuery
	for _, lq := range t.queries {
		if lq.ExpireAt > now && lq.Query.Kind == kind {
			out = append(out, lq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query.ID < out[j].Query.ID })
	return out
}

// MatchItem returns unexpired lingering queries of the kind whose Item
// descriptor equals the given item (CDI and chunk planes match on the
// requested item, not on predicates). Sorted by query id.
func (t *LQT) MatchItem(kind wire.QueryKind, itemKey string, now time.Duration) []*LingeringQuery {
	var out []*LingeringQuery
	for _, lq := range t.queries {
		if lq.ExpireAt <= now || lq.Query.Kind != kind {
			continue
		}
		if lq.Query.Item.Key() != itemKey {
			continue
		}
		out = append(out, lq)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query.ID < out[j].Query.ID })
	return out
}

// Remove deletes a query by id (used by the one-shot Interest ablation
// and when a chunk query has been fully served).
func (t *LQT) Remove(id uint64) { delete(t.queries, id) }

// Expire removes expired queries and returns the number removed
// (§III-A: "a lingering query stays in the LQT until its expiration,
// upon which it is removed"). Before the watermark it returns at once:
// no query is due yet.
//
//pds:hotpath
func (t *LQT) Expire(now time.Duration) int {
	if now < t.nextExpiry {
		return 0
	}
	t.scans++
	// Collect and sort before emitting: LQTExpire events land in the
	// trace export, which must not inherit map iteration order.
	expired := t.expired[:0]
	next := never
	for id, lq := range t.queries {
		if lq.ExpireAt <= now {
			expired = append(expired, id)
		} else {
			next = min(next, lq.ExpireAt)
		}
	}
	t.nextExpiry = next
	slices.Sort(expired)
	for _, id := range expired {
		delete(t.queries, id)
		t.tr.LQTExpire(id)
	}
	t.expired = expired
	return len(expired)
}

// Overdue counts the queries held whose expiry is before cutoff.
func (t *LQT) Overdue(cutoff time.Duration) int {
	n := 0
	for _, lq := range t.queries {
		if lq.ExpireAt < cutoff {
			n++
		}
	}
	return n
}

// Len returns the number of queries currently held, expired or not.
func (t *LQT) Len() int { return len(t.queries) }

// RecentResponses tracks recently seen response ids to drop redundant
// copies (§III-A RR lookup). Entries are pruned after a retention
// window.
type RecentResponses struct {
	seen      map[uint64]time.Duration
	retention time.Duration
	// nextPrune is the watermark: no id leaves the window before it.
	// Prune recomputes it on each full scan; Seen lowers it.
	nextPrune time.Duration
	scans     int // full Prune scans, read by tests
}

// NewRecentResponses returns a cache with the given retention.
func NewRecentResponses(retention time.Duration) *RecentResponses {
	return &RecentResponses{seen: make(map[uint64]time.Duration), retention: retention, nextPrune: never}
}

// Seen records the id and reports whether it had been seen within the
// retention window.
func (r *RecentResponses) Seen(id uint64, now time.Duration) bool {
	at, ok := r.seen[id]
	r.seen[id] = now
	r.nextPrune = min(r.nextPrune, now+r.retention)
	return ok && now-at < r.retention
}

// Prune removes entries older than the retention window. Before the
// watermark it returns at once: no id has aged out yet.
//
//pds:hotpath
func (r *RecentResponses) Prune(now time.Duration) {
	if now < r.nextPrune {
		return
	}
	r.scans++
	next := never
	for id, at := range r.seen {
		if now-at >= r.retention {
			delete(r.seen, id)
		} else {
			next = min(next, at+r.retention)
		}
	}
	r.nextPrune = next
}

// Overdue counts the ids held whose retention window ended before
// cutoff.
func (r *RecentResponses) Overdue(cutoff time.Duration) int {
	n := 0
	for _, at := range r.seen {
		if at+r.retention < cutoff {
			n++
		}
	}
	return n
}

// Len returns the number of tracked ids.
func (r *RecentResponses) Len() int { return len(r.seen) }
