package store

import (
	"fmt"

	"pds/internal/strategy"
)

// CachePolicy selects the eviction strategy for cached (non-owned)
// payloads when the cache budget is exceeded. The paper leaves chunk
// caching strategy as future work (§VII: "we plan to study proper data
// chunk caching strategies based on their popularity and devices'
// resource availability"); the obvious candidates are implemented as
// cache strategies in internal/strategy and this enum remains as the
// legacy selector for them (the strategy registry accepts more, e.g.
// "opportunistic" — install those with SetCacheStrategy).
type CachePolicy uint8

const (
	// EvictFIFO removes the oldest cached payload first (default).
	EvictFIFO CachePolicy = iota
	// EvictLRU removes the least recently accessed payload first.
	EvictLRU
	// EvictLFU removes the least frequently accessed payload first
	// (the popularity-based strategy §VII sketches).
	EvictLFU
)

// String returns the policy name, which doubles as the strategy
// registry name.
func (p CachePolicy) String() string {
	switch p {
	case EvictLRU:
		return "lru"
	case EvictLFU:
		return "lfu"
	default:
		return "fifo"
	}
}

// SetCachePolicy selects the eviction strategy by the legacy enum; it
// only affects future evictions. Access state already accumulated is
// dropped (policies never shared it meaningfully anyway).
func (s *DataStore) SetCachePolicy(p CachePolicy) {
	cs, err := strategy.NewCaching(p.String(), 0)
	if err != nil {
		panic(fmt.Sprintf("store: builtin cache policy missing from registry: %v", err))
	}
	s.cache = cs
}

// SetCacheStrategy installs a cache strategy instance (admission +
// eviction; see strategy.CacheStrategy). It only affects future
// insertions and evictions.
func (s *DataStore) SetCacheStrategy(cs strategy.CacheStrategy) {
	if cs == nil {
		s.SetCachePolicy(EvictFIFO)
		return
	}
	s.cache = cs
}

// CacheStrategyName returns the name of the installed cache strategy.
func (s *DataStore) CacheStrategyName() string { return s.cache.Name() }

// CacheCounters returns the installed cache strategy's bookkeeping.
func (s *DataStore) CacheCounters() strategy.CacheCounters { return s.cache.Counters() }

// touch records an access to a cached payload for LRU/LFU accounting.
func (s *DataStore) touch(key string) { s.cache.Touch(key) }

// victim returns the cache-order index of the payload to evict next
// under the current strategy, or -1 when nothing is evictable.
func (s *DataStore) victim() int {
	if len(s.cacheOrder) == 0 {
		return -1
	}
	return s.cache.Victim(s.cacheOrder)
}

// evictOne removes one cached payload from RAM according to the
// strategy; it reports whether anything was removed. With a backend
// holding a durable copy, the eviction is a spill: the bytes leave RAM
// but the entry keeps serving through disk reads, so the strategy
// decides what leaves memory while the backend decides where bytes
// survive.
func (s *DataStore) evictOne() bool {
	i := s.victim()
	if i < 0 {
		return false
	}
	key := s.cacheOrder[i]
	s.cacheOrder = append(s.cacheOrder[:i], s.cacheOrder[i+1:]...)
	if p, ok := s.payloads[key]; ok && !s.ownedKeys[key] {
		s.cachedBytes -= len(p)
		s.tr.CacheEvict(key, len(p))
		delete(s.payloads, key)
		if s.backend != nil && s.backend.HasPayload(key) {
			s.spilled[key] = true
		} else if e, ok := s.entries[key]; ok {
			s.unindexChunk(e.Desc)
			if !e.Owned {
				// The payload pinned this entry; once it expires
				// Expire must reap it.
				s.nextExpiry = min(s.nextExpiry, e.ExpireAt)
			}
		}
	}
	s.cache.Forget(key)
	return true
}
