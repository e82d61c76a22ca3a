package trace

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"
)

// StoreConfig tunes a Store. Zero values pick production-shaped
// defaults.
type StoreConfig struct {
	// Capacity bounds the number of retained traces; <= 0 uses 512.
	Capacity int
	// SampleRate in [0, 1] is the probability an *uninteresting* trace
	// (no errors, not slow) is kept anyway; interesting traces are
	// always kept. Negative means 0.
	SampleRate float64
	// SlowThreshold classifies a root span at or above this duration
	// as slow (and therefore always kept); <= 0 uses 250ms.
	SlowThreshold time.Duration
	// Seed makes the probabilistic sampling decisions reproducible for
	// tests; 0 seeds from wall time via the tracer's entropy rules.
	Seed int64
}

// Keep classes recorded in trace_store_kept_total{class}.
const (
	// KeptError: the trace contains an errored span or error event
	// (shed, quota denial, injected fault, breaker rejection, 5xx).
	KeptError = "error"
	// KeptSlow: the root span's duration met SlowThreshold.
	KeptSlow = "slow"
	// KeptSampled: an ordinary trace that won the probabilistic draw.
	KeptSampled = "sampled"
)

// Trace is one stored trace: every root span tree offered under the
// same trace id, in arrival order. A client-side trace holds one root
// per operation; a server-side trace accumulates one root per HTTP
// request that carried the id (each retry attempt of one logical call
// lands here as its own root, which is exactly the attribution the
// store exists for).
type Trace struct {
	ID    string      `json:"trace_id"`
	Roots []*SpanData `json:"roots"`
	// Error and Slow record why the trace was retained.
	Error bool `json:"error,omitempty"`
	Slow  bool `json:"slow,omitempty"`
}

// Duration returns the longest root duration, the trace's headline
// latency.
func (tr *Trace) Duration() time.Duration {
	var max time.Duration
	for _, r := range tr.Roots {
		if r.Duration > max {
			max = r.Duration
		}
	}
	return max
}

// Store is a bounded, concurrency-safe tail-sampling trace store:
// every finished root span tree is offered, interesting ones (errored
// or slow) are always kept, the rest survive a seeded coin flip, and
// capacity evicts ordinary traces before interesting ones, oldest
// first.
type Store struct {
	cfg StoreConfig

	mu      sync.Mutex
	rng     *rand.Rand        // guarded by mu
	traces  map[string]*Trace // guarded by mu
	arrival []string          // trace ids, insertion order; guarded by mu
	dropped uint64            // guarded by mu
	evicted uint64            // guarded by mu
}

// NewStore returns a store for cfg.
func NewStore(cfg StoreConfig) *Store {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 512
	}
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	var src idSource
	src.seed(cfg.Seed)
	src.mu.Lock()
	rng := src.rng
	src.mu.Unlock()
	return &Store{cfg: cfg, rng: rng, traces: make(map[string]*Trace)}
}

// Offer submits one finished root span tree for tail sampling. The
// decision is made here, after the request completed — the definition
// of tail sampling: by now the store knows whether the request
// erred, was shed, or ran long.
func (s *Store) Offer(root *SpanData) {
	if s == nil || root == nil {
		return
	}
	errored := anyError(root)
	slow := root.Duration >= s.cfg.SlowThreshold

	s.mu.Lock()
	defer s.mu.Unlock()
	tr, exists := s.traces[root.TraceID]
	if !exists && !errored && !slow {
		// Ordinary trace: seeded coin flip.
		if s.rng.Float64() >= s.cfg.SampleRate {
			s.dropped++
			m().storeDropped.Inc()
			return
		}
	}
	if !exists {
		tr = &Trace{ID: root.TraceID}
		s.traces[root.TraceID] = tr
		s.arrival = append(s.arrival, root.TraceID)
	}
	tr.Roots = append(tr.Roots, root)
	tr.Error = tr.Error || errored
	tr.Slow = tr.Slow || slow
	switch {
	case errored:
		m().storeKept.With(KeptError).Inc()
	case slow:
		m().storeKept.With(KeptSlow).Inc()
	default:
		m().storeKept.With(KeptSampled).Inc()
	}
	s.evictLocked()
	m().storeOccupancy.Set(float64(len(s.traces)))
}

// evictLocked enforces capacity: ordinary traces go first, then the
// oldest interesting ones. Callers hold s.mu.
func (s *Store) evictLocked() {
	for len(s.traces) > s.cfg.Capacity {
		victim := -1
		for i, id := range s.arrival {
			if tr := s.traces[id]; tr != nil && !tr.Error && !tr.Slow {
				victim = i
				break
			}
		}
		if victim == -1 {
			victim = 0 // all interesting: oldest goes
		}
		id := s.arrival[victim]
		s.arrival = append(s.arrival[:victim], s.arrival[victim+1:]...)
		delete(s.traces, id)
		s.evicted++
		m().storeEvicted.Inc()
	}
}

// Get returns a copy of the stored trace for id, or nil. Offer keeps
// appending roots to a stored trace, so the copy owns its Roots slice;
// the roots themselves are immutable snapshots and are shared.
func (s *Store) Get(id string) *Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.traces[id]
	if tr == nil {
		return nil
	}
	cp := *tr
	cp.Roots = slices.Clone(tr.Roots)
	return &cp
}

// Len returns the number of retained traces.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.traces)
}

// Dropped returns how many offered traces the sampler declined.
func (s *Store) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Evicted returns how many retained traces capacity pushed out.
func (s *Store) Evicted() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Capacity returns the configured retention bound.
func (s *Store) Capacity() int {
	if s == nil {
		return 0
	}
	return s.cfg.Capacity
}

// Summary is one trace's headline row in the /debug/traces listing.
type Summary struct {
	ID       string        `json:"trace_id"`
	Name     string        `json:"name"`
	Roots    int           `json:"roots"`
	Spans    int           `json:"spans"`
	Duration time.Duration `json:"duration_ns"`
	Error    bool          `json:"error,omitempty"`
	Slow     bool          `json:"slow,omitempty"`
}

// List returns up to n trace summaries, errored traces first, then by
// descending duration, ties broken by trace id so the order is
// deterministic. n <= 0 means all.
func (s *Store) List(n int) []Summary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]Summary, 0, len(s.traces))
	for id, tr := range s.traces {
		sum := Summary{
			ID:       id,
			Roots:    len(tr.Roots),
			Duration: tr.Duration(),
			Error:    tr.Error,
			Slow:     tr.Slow,
		}
		if len(tr.Roots) > 0 {
			sum.Name = tr.Roots[0].Name
		}
		for _, r := range tr.Roots {
			sum.Spans += countSpans(r)
		}
		out = append(out, sum)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Error != out[j].Error {
			return out[i].Error
		}
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].ID < out[j].ID
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

func countSpans(sd *SpanData) int {
	n := 1
	for _, c := range sd.Children {
		n += countSpans(c)
	}
	return n
}
