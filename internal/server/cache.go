package server

import (
	"container/list"
	"expvar"
	"strings"
	"sync"
)

// Cache is the bounded LRU over solved results. Keys are the canonical
// (graph name@version, family, algorithm, options) strings built by the
// solve pipeline, so a cache hit is exactly "this query on this unchanged
// graph has been answered before" — graph replacement bumps the version
// and orphans every stale entry, which the LRU bound then evicts.
//
// Values are stored as-is; callers must only cache immutable data (the
// handlers cache response structs whose slices are never written again).
type Cache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	// hit/miss counters, shared with the server's Metrics so /debug/vars
	// reports them without a second source of truth.
	hits   *expvar.Int
	misses *expvar.Int
}

type cacheEntry struct {
	key   string
	value any
}

// NewCache returns an LRU bounded to capacity entries (minimum 1). The
// expvar counters may be nil, in which case private ones are allocated.
func NewCache(capacity int, hits, misses *expvar.Int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if hits == nil {
		hits = new(expvar.Int)
	}
	if misses == nil {
		misses = new(expvar.Int)
	}
	return &Cache{
		cap:    capacity,
		order:  list.New(),
		items:  map[string]*list.Element{},
		hits:   hits,
		misses: misses,
	}
}

// Get returns the cached value for key and refreshes its recency.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).value, true
}

// Put inserts or refreshes key, evicting the least-recently-used entry
// once the bound is exceeded.
func (c *Cache) Put(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).value = value
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, value: value})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// InvalidateGraph eagerly drops every cached result for the named graph
// (all versions, both families) and reports how many entries went. Version
// scoping already keeps stale entries unreachable; live graphs publish
// versions at mutation rate, so waiting for LRU pressure to evict the
// orphans would let one busy live graph flush the working set for every
// other graph. Keys are "name@version|...", so the prefix is exact.
func (c *Cache) InvalidateGraph(name string) int {
	prefix := name + "@"
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		ent := el.Value.(*cacheEntry)
		if strings.HasPrefix(ent.key, prefix) {
			c.order.Remove(el)
			delete(c.items, ent.key)
			removed++
		}
	}
	return removed
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Hits returns the lifetime hit count.
func (c *Cache) Hits() int64 { return c.hits.Value() }

// Misses returns the lifetime miss count.
func (c *Cache) Misses() int64 { return c.misses.Value() }
