package serving

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"
)

// resultCache is the request-level answer cache: a sharded, bounded LRU
// keyed on document text, sitting in front of the queue. Caching is
// correct here because queries never feed back into the models — identical
// text yields identical tags within one model generation — and every entry
// is stamped with the generation that produced it, so answers from a
// retired generation can neither be served nor inserted after a Swap.
//
// Sharding keeps the hit path cheap under many concurrent clients: a hit
// takes one shard mutex, not a cache-wide one. Each shard runs its own LRU
// over capacity/shards entries, so the bound is global in aggregate while
// eviction decisions stay local.
type resultCache struct {
	shards   []*cacheShard
	capacity int
	// gen is the model generation entries must match. flush bumps it
	// before clearing, so an insert racing a flush can never resurrect a
	// retired generation's answer (the check happens under the shard
	// lock that the clear also takes).
	gen                     atomic.Int64
	hits, misses, evictions atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	cap     int
}

type cacheEntry struct {
	key  string
	tags []string
}

// cacheShardCount bounds lock contention; small capacities use fewer
// shards so every shard still holds at least one entry.
const cacheShardCount = 16

// maxCachedTextBytes keeps pathological documents out of the cache: every
// entry retains its full text as the key, so without a per-text bound the
// count-bounded cache could pin CacheSize× an arbitrarily large document
// in memory. Oversized texts simply bypass the cache (counted as misses).
const maxCachedTextBytes = 64 << 10

func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	n := cacheShardCount
	if capacity < n {
		n = capacity
	}
	c := &resultCache{shards: make([]*cacheShard, n), capacity: capacity}
	c.gen.Store(1)
	// Distribute the capacity exactly: the first capacity%n shards hold
	// one extra entry, so the aggregate bound is capacity, not a
	// per-shard ceiling times n.
	for i := range c.shards {
		per := capacity / n
		if i < capacity%n {
			per++
		}
		c.shards[i] = &cacheShard{
			order:   list.New(),
			entries: make(map[string]*list.Element, per),
			cap:     per,
		}
	}
	return c
}

// shardFor hashes the key with FNV-1a.
func (c *resultCache) shardFor(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// get returns the cached tags for text, if present. The returned slice is
// a copy: callers may mutate their answer without corrupting the cache.
func (c *resultCache) get(text string) ([]string, bool) {
	if len(text) > maxCachedTextBytes {
		c.misses.Add(1)
		return nil, false
	}
	sh := c.shardFor(text)
	sh.mu.Lock()
	e, ok := sh.entries[text]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	sh.order.MoveToFront(e)
	tags := slices.Clone(e.Value.(*cacheEntry).tags)
	sh.mu.Unlock()
	c.hits.Add(1)
	return tags, true
}

// add inserts a successful answer produced by model generation gen. Inserts
// stamped with a retired generation are dropped: the generation check runs
// under the shard lock, which flush also takes after bumping gen, so no
// interleaving lets a stale answer outlive its models. The stored slice is
// a copy of tags.
func (c *resultCache) add(text string, tags []string, gen int64) {
	if len(text) > maxCachedTextBytes {
		return
	}
	sh := c.shardFor(text)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.gen.Load() != gen {
		return
	}
	if e, ok := sh.entries[text]; ok {
		sh.order.MoveToFront(e)
		e.Value.(*cacheEntry).tags = slices.Clone(tags)
		return
	}
	sh.entries[text] = sh.order.PushFront(&cacheEntry{key: text, tags: slices.Clone(tags)})
	if sh.order.Len() > sh.cap {
		oldest := sh.order.Back()
		sh.order.Remove(oldest)
		delete(sh.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// flush retires every entry and installs gen as the new accepted
// generation. Called by Swap after the new engine pool is live.
func (c *resultCache) flush(gen int64) {
	c.gen.Store(gen)
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.order.Init()
		clear(sh.entries)
		sh.mu.Unlock()
	}
}

// len reports the current number of cached entries.
func (c *resultCache) len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}
