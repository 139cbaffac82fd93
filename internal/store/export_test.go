package store

import (
	"fmt"
	"sort"
	"strings"
)

// Test hooks for the expiry watermark: scan counters, a switch that
// makes the next expiry pass scan in full (the reference a table
// without a watermark would be), the watermark invariant, and a
// deterministic dump of each table's contents.

// Scans returns how many full Expire scans the store has made.
func (s *DataStore) Scans() int { return s.scans }

// Scans returns how many full Expire scans the table has made.
func (t *LQT) Scans() int { return t.scans }

// Scans returns how many full Prune scans the cache has made.
func (r *RecentResponses) Scans() int { return r.scans }

// Scans returns how many full Expire scans the table has made.
func (t *CDITable) Scans() int { return t.scans }

// ForceScan makes the next Expire scan every entry.
func (s *DataStore) ForceScan() { s.nextExpiry = 0 }

// ForceScan makes the next Expire scan every query.
func (t *LQT) ForceScan() { t.nextExpiry = 0 }

// ForceScan makes the next Prune scan every id.
func (r *RecentResponses) ForceScan() { r.nextPrune = 0 }

// ForceScan makes the next Expire scan every entry.
func (t *CDITable) ForceScan() { t.nextExpiry = 0 }

// BelowWatermark lists the entries Expire could remove, once due,
// whose expiry is below the watermark: non-owned entries that no
// payload pins.
func (s *DataStore) BelowWatermark() []string {
	var out []string
	for k, e := range s.entries {
		if !e.Owned && e.ExpireAt < s.nextExpiry && !s.pinned(k) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// BelowWatermark lists the queries expiring before the watermark.
func (t *LQT) BelowWatermark() []uint64 {
	var out []uint64
	for id, lq := range t.queries {
		if lq.ExpireAt < t.nextExpiry {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BelowWatermark lists the ids leaving the window before the
// watermark.
func (r *RecentResponses) BelowWatermark() []uint64 {
	var out []uint64
	for id, at := range r.seen {
		if at+r.retention < r.nextPrune {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BelowWatermark lists the entries expiring before the watermark.
func (t *CDITable) BelowWatermark() []CDIEntry {
	var out []CDIEntry
	for _, chunks := range t.items {
		for _, entries := range chunks {
			for _, e := range entries {
				if e.ExpireAt < t.nextExpiry {
					out = append(out, e)
				}
			}
		}
	}
	return out
}

// Dump renders every entry, payload, spill mark, cache slot and chunk
// index record in a deterministic order.
func (s *DataStore) Dump() string {
	var b strings.Builder
	for _, k := range sortedKeys(s.entries) {
		e := s.entries[k]
		_, held := s.payloads[k]
		fmt.Fprintf(&b, "entry %s owned=%v exp=%v held=%v spilled=%v\n", k, e.Owned, e.ExpireAt, held, s.spilled[k])
	}
	for _, k := range sortedKeys(s.payloads) {
		fmt.Fprintf(&b, "payload %s %x owned=%v\n", k, s.payloads[k], s.ownedKeys[k])
	}
	for _, k := range sortedKeys(s.spilled) {
		fmt.Fprintf(&b, "spilled %s\n", k)
	}
	for _, k := range sortedKeys(s.chunkIndex) {
		fmt.Fprintf(&b, "chunks %s %v\n", k, s.chunkIndex[k])
	}
	fmt.Fprintf(&b, "cached %d bytes, order %v\n", s.cachedBytes, s.cacheOrder)
	return b.String()
}

// Dump renders every query with its expiry, in id order.
func (t *LQT) Dump() string {
	var b strings.Builder
	for _, id := range sortedKeys(t.queries) {
		lq := t.queries[id]
		fmt.Fprintf(&b, "query %d exp=%v\n", id, lq.ExpireAt)
	}
	return b.String()
}

// Dump renders every id with the time it was last seen, in id order.
func (r *RecentResponses) Dump() string {
	var b strings.Builder
	for _, id := range sortedKeys(r.seen) {
		fmt.Fprintf(&b, "seen %d at=%v\n", id, r.seen[id])
	}
	return b.String()
}

// Dump renders every entry, per item and chunk, in table order.
func (t *CDITable) Dump() string {
	var b strings.Builder
	for _, item := range sortedKeys(t.items) {
		chunks := t.items[item]
		for _, cid := range sortedKeys(chunks) {
			fmt.Fprintf(&b, "cdi %s/%d %v\n", item, cid, chunks[cid])
		}
	}
	return b.String()
}

func sortedKeys[K string | int | uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
