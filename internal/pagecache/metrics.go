package pagecache

import (
	"sync/atomic"

	"ensdropcatch/internal/obs"
)

// metricSet holds the package's instrumentation handles.
type metricSet struct {
	hits      *obs.CounterVec
	misses    *obs.CounterVec
	admitted  *obs.CounterVec
	bypass    *obs.CounterVec
	evictions *obs.Counter
	entries   *obs.Gauge
}

var metrics atomic.Pointer[metricSet]

func init() { InitMetrics(obs.Default) }

// InitMetrics points the package's instrumentation at reg (nil resets
// to obs.Default).
func InitMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	metrics.Store(&metricSet{
		hits: reg.CounterVec("pagecache_hits_total",
			"Responses served from the page cache, by route.", "route"),
		misses: reg.CounterVec("pagecache_misses_total",
			"Requests that fell through to the handler, by route.", "route"),
		admitted: reg.CounterVec("pagecache_admitted_total",
			"Misses that stored their page (a second miss within the window of one-off misses), by route.", "route"),
		bypass: reg.CounterVec("pagecache_bypass_total",
			"Requests the cache refused to key (method, oversized body), by route.", "route"),
		evictions: reg.Counter("pagecache_evictions_total",
			"Entries dropped by the LRU bound."),
		entries: reg.Gauge("pagecache_entries",
			"Entries currently cached."),
	})
}

func m() *metricSet { return metrics.Load() }
