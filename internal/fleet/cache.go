package fleet

import (
	"sync"
	"sync/atomic"

	"lofat/internal/core"
)

// MeasurementCache is the fleet-wide golden-measurement store. It
// implements attest.ExpectationCache, so device verifiers derived from
// one template all read through it: the first verification of a
// (program, input) pair simulates the golden run and publishes it; every
// subsequent verification — on any device in the fleet — is a pure
// protocol + signature + hash/metadata comparison with no simulation.
//
// Entries are immutable once published (verifiers only read the shared
// *core.Measurement), so a plain RWMutex map suffices. Keys are the
// verifier-built opaque strings of attest.ExpectationCache, which cover
// program identity, device configuration and input. Hit/miss counters
// feed the fleet metrics.
type MeasurementCache struct {
	mu      sync.RWMutex
	entries map[string]*core.Measurement

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewMeasurementCache returns an empty cache.
func NewMeasurementCache() *MeasurementCache {
	return &MeasurementCache{entries: make(map[string]*core.Measurement)}
}

// GetExpectation implements attest.ExpectationCache.
func (c *MeasurementCache) GetExpectation(key string) (*core.Measurement, bool) {
	c.mu.RLock()
	m, ok := c.entries[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return m, ok
}

// PutExpectation implements attest.ExpectationCache.
func (c *MeasurementCache) PutExpectation(key string, m *core.Measurement) {
	c.mu.Lock()
	c.entries[key] = m
	c.mu.Unlock()
}

// Hits reports shared-cache lookups that avoided a golden run.
func (c *MeasurementCache) Hits() uint64 { return c.hits.Load() }

// Misses reports shared-cache lookups that fell through to simulation.
func (c *MeasurementCache) Misses() uint64 { return c.misses.Load() }

// HitRate reports hits/(hits+misses), or 0 before any lookup.
func (c *MeasurementCache) HitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Keys lists the cached measurement keys. The keys are the opaque
// verifier-built strings of attest.ExpectationCache; a persistence
// layer records them so a restarted node knows which golden runs it had
// warmed (the measurements themselves are recomputed, not persisted —
// they are derivable and large, the keys are neither).
func (c *MeasurementCache) Keys() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	return out
}

// Len reports the number of cached (program, input) measurements.
func (c *MeasurementCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
