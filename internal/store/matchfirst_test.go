package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pds/internal/attr"
)

// refMatch is the per-selector reference MatchFirst replaced: collect
// the matching keys (from the entries, or from the held and spilled
// payloads when payloadsOnly), sort them, look each one up again.
func refMatch(s *DataStore, q attr.Query, payloadsOnly bool, now time.Duration) []attr.Descriptor {
	var keys []string
	add := func(k string) {
		e, ok := s.entries[k]
		if ok && s.live(e, now) && q.Match(e.Desc) {
			keys = append(keys, k)
		}
	}
	if payloadsOnly {
		for k := range s.payloads {
			add(k)
		}
		for k := range s.spilled {
			if _, inRAM := s.payloads[k]; !inRAM {
				add(k)
			}
		}
	} else {
		for k := range s.entries {
			add(k)
		}
	}
	sort.Strings(keys)
	out := make([]attr.Descriptor, len(keys))
	for i, k := range keys {
		out[i] = s.entries[k].Desc
	}
	return out
}

// refMatchFirst is the reference candidate drive of a serve pass: each
// selector's key-sorted matches in selector order, merged through a
// seen-map.
func refMatchFirst(s *DataStore, sels []attr.Query, payloadsOnly bool, now time.Duration) []Hit {
	seen := make(map[string]bool)
	var out []Hit
	for i, q := range sels {
		for _, d := range refMatch(s, q, payloadsOnly, now) {
			if !seen[d.Key()] {
				seen[d.Key()] = true
				out = append(out, Hit{Desc: d, First: i})
			}
		}
	}
	return out
}

// keepBackend is a durable tier that keeps every payload, so each
// cached payload the policy evicts from RAM is spilled.
type keepBackend map[string][]byte

func (b keepBackend) PutEntry(attr.Descriptor) {}
func (b keepBackend) PutPayload(d attr.Descriptor, p []byte, _ bool) bool {
	b[d.Key()] = p
	return true
}
func (b keepBackend) GetPayload(key string) ([]byte, bool) { p, ok := b[key]; return p, ok }
func (b keepBackend) HasPayload(key string) bool           { _, ok := b[key]; return ok }
func (b keepBackend) DeletePayload(key string)             { delete(b, key) }
func (b keepBackend) WipeCached()                          {}
func (b keepBackend) Restore(func(attr.Descriptor, []byte, bool, bool)) {
}

func scanEntry(ns string, i int) attr.Descriptor {
	return attr.NewDescriptor().
		Set(attr.AttrNamespace, attr.String(ns)).
		Set(attr.AttrName, attr.String(fmt.Sprintf("e%02d", i))).
		Set("v", attr.Int(int64(i%10)))
}

// scanSelectors draws the selector pool: nested (env ⊃ env∧v<5),
// overlapping (env, v≥5, prefix e1) and disjoint (env, traffic), plus
// the empty selector, which matches everything.
var scanSelectors = []attr.Query{
	attr.NewQuery(attr.Eq(attr.AttrNamespace, attr.String("env"))),
	attr.NewQuery(attr.Eq(attr.AttrNamespace, attr.String("env")), attr.Lt("v", attr.Int(5))),
	attr.NewQuery(attr.Ge("v", attr.Int(5))),
	attr.NewQuery(attr.Eq(attr.AttrNamespace, attr.String("traffic"))),
	attr.NewQuery(attr.Prefix(attr.AttrName, "e1")),
	attr.NewQuery(),
}

// randomScanStore fills a store with owned entries, owned payloads,
// cached entries and cached payloads (some spilled by evictions), with
// expiries on both sides of now = 50s.
func randomScanStore(rng *rand.Rand) *DataStore {
	s := NewDataStore(6)
	s.SetBackend(keepBackend{})
	for i := 0; i < 40; i++ {
		ns := "env"
		if rng.Intn(3) == 0 {
			ns = "traffic"
		}
		d := scanEntry(ns, i)
		exp := time.Duration(rng.Intn(100)) * time.Second
		switch rng.Intn(5) {
		case 0:
			s.PutOwned(d)
		case 1:
			s.PutPayloadOwned(d, []byte{1})
		case 2:
			s.PutCached(d, exp)
		default:
			s.PutPayloadCached(d, []byte{1, 2}, 0, exp)
		}
	}
	return s
}

// TestMatchFirstMatchesReference: over random stores and 1–4 selectors,
// MatchFirst returns exactly the reference drive's descriptors, order
// and first indices, in both modes; Match and MatchPayloads equal the
// per-selector reference.
func TestMatchFirstMatchesReference(t *testing.T) {
	const now = 50 * time.Second
	rng := rand.New(rand.NewSource(1))
	var expiredPinned, spilled, laterFirst int
	for trial := 0; trial < 300; trial++ {
		s := randomScanStore(rng)
		spilled += len(s.spilled)
		for k, e := range s.entries {
			if !s.live(e, now) && s.pinned(k) {
				expiredPinned++
			}
		}
		sels := make([]attr.Query, 1+rng.Intn(4))
		for i := range sels {
			sels[i] = scanSelectors[rng.Intn(len(scanSelectors))]
		}
		for _, payloadsOnly := range []bool{false, true} {
			got := s.MatchFirst(sels, payloadsOnly, now)
			want := refMatchFirst(s, sels, payloadsOnly, now)
			if len(got) != len(want) {
				t.Fatalf("trial %d payloadsOnly=%v: %d hits, reference %d", trial, payloadsOnly, len(got), len(want))
			}
			for i := range got {
				if got[i].First != want[i].First || !got[i].Desc.Equal(want[i].Desc) {
					t.Fatalf("trial %d payloadsOnly=%v hit %d: got (%v, %d), reference (%v, %d)",
						trial, payloadsOnly, i, got[i].Desc, got[i].First, want[i].Desc, want[i].First)
				}
				if got[i].First > 0 {
					laterFirst++
				}
			}
		}
		q := sels[0]
		for _, c := range []struct {
			name string
			got  []attr.Descriptor
			want []attr.Descriptor
		}{
			{"Match", s.Match(q, now), refMatch(s, q, false, now)},
			{"MatchPayloads", s.MatchPayloads(q, now), refMatch(s, q, true, now)},
		} {
			if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
				t.Fatalf("trial %d %s = %v, reference %v", trial, c.name, c.got, c.want)
			}
		}
	}
	// The mix must have exercised every case the scan distinguishes.
	if expiredPinned == 0 || spilled == 0 || laterFirst == 0 {
		t.Fatalf("weak mix: %d expired-but-pinned entries, %d spilled payloads, %d hits past the first selector",
			expiredPinned, spilled, laterFirst)
	}
}
