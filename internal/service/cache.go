package service

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// Cache is the content-addressed result store: confhash key → cell
// result. Entries are immutable once stored (a key is a hash of
// everything that determines the result, so there is nothing to
// update) and live for the daemon's lifetime — a simulation cell is a
// few hundred bytes, so even a week of sweeps is megabytes.
//
// An entry holds a cell in one of two forms. A record replayed from the
// log stays encoded until its first hit decodes it and drops the bytes;
// a cell the daemon simulated itself is stored decoded from the start.
// Either way a warm hit after the first costs a map lookup, startup
// replay never decodes, and no entry keeps both forms at once. Decoded
// cells are shared by every batch they serve and must be treated as
// read-only.
//
// With a backing log (NewPersistentCache) every Put is also appended
// to an append-only record file, and a restarted daemon replays it so
// persisted cells survive kill -9 — see persist.go for the framing and
// recovery rules.
type Cache struct {
	mu          sync.Mutex
	entries     map[string]cacheEntry
	log         *cacheLog // nil = memory-only
	hits        atomic.Int64
	misses      atomic.Int64
	persistErrs atomic.Int64
	persistErr  error // first append failure, for diagnostics
}

// cacheEntry is one cell: raw holds a replayed record until its first
// hit, cell the decoded form (*cellDownload or *cellShard) from then
// on. Only replay stores raw entries, so an entry's bytes never change
// while it waits to be decoded.
type cacheEntry struct {
	raw  []byte
	cell any
}

// NewCache returns an empty memory-only cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]cacheEntry)}
}

// NewPersistentCache opens (or creates) the record log at path,
// replays every intact record, and returns a cache whose Puts are
// appended to the file. A torn or corrupt tail is truncated, not
// fatal; the returned RecoveryInfo says what was kept and dropped.
func NewPersistentCache(path string) (*Cache, RecoveryInfo, error) {
	c := NewCache()
	log, info, err := openCacheLog(path, c.entries)
	if err != nil {
		return nil, info, err
	}
	c.log = log
	return c, info, nil
}

// Get returns the decoded cell for key and counts the lookup as a hit
// or a miss. Executors call it exactly once per cell, so the counters
// read as "cells served from cache" vs "cells that had to simulate".
//
// A replayed record is decoded with decode on its first hit, outside
// the lock, and the decoded cell replaces the bytes. A record that
// fails to decode counts as a miss: the executor re-simulates the cell
// and its Put replaces the record.
func (c *Cache) Get(key string, decode func([]byte) (any, error)) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	cell := e.cell
	if ok && cell == nil {
		d, err := decode(e.raw)
		c.mu.Lock()
		if cur := c.entries[key]; cur.cell != nil {
			cell = cur.cell // decoded meanwhile by a concurrent hit or a Put
		} else if err == nil {
			c.entries[key] = cacheEntry{cell: d}
			cell = d
		}
		c.mu.Unlock()
	}
	if cell == nil {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return cell, true
}

// Contains reports presence without touching the hit/miss counters —
// the submit path uses it to report how much of a batch is already
// warm.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	return ok
}

// Put stores a cell the daemon simulated, in decoded form, and, when
// the cache is persistent, appends raw — the cell's encoding — to the
// record log. Storing the same key twice is harmless: both writers
// computed the value from the same config, so a key that already holds
// a decoded cell or the same record bytes keeps them, and the duplicate
// is not re-appended. A failed append keeps the daemon serving from
// memory; the failure is counted (PersistErrors) rather than surfaced
// per-cell.
func (c *Cache) Put(key string, cell any, raw []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok && (old.cell != nil || bytes.Equal(old.raw, raw)) {
		return
	}
	c.entries[key] = cacheEntry{cell: cell}
	if c.log != nil {
		if err := c.log.append(key, raw); err != nil {
			if c.persistErr == nil {
				c.persistErr = err
			}
			c.persistErrs.Add(1)
		}
	}
}

// Close releases the backing log (no-op for a memory-only cache).
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.log.Close()
	c.log = nil
	return err
}

// Len returns the number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits returns cells served from cache since startup.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns cells that missed since startup.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// PersistErrors returns the number of failed record appends (0 for a
// healthy or memory-only cache).
func (c *Cache) PersistErrors() int64 { return c.persistErrs.Load() }
