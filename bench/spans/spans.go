// Package spans records the benchmark's own timing spans: one span per
// call the benchmark makes into a layer of the program, kept in memory
// and written out as JSON when the run ends. A nil *Recorder records
// nothing, so untraced runs pay one nil check per call site.
package spans

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the
// recorder was created. Req groups the spans of one request or pass.
type Span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder collects spans from any number of goroutines.
type Recorder struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []Span // guarded by mu
}

// NewRecorder starts a recorder whose clock begins now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Open is a started span; End records it.
type Open struct {
	r    *Recorder
	span Span
}

// NewID hands out a fresh span id, for callers that need a request id
// before the span that carries it starts. It returns 0 on a nil
// recorder.
func (r *Recorder) NewID() uint64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// Start opens a span with a fresh id, starting now.
func (r *Recorder) Start(name string, parent, req uint64) *Open {
	return r.StartAt(time.Now(), name, r.NewID(), parent, req)
}

// StartAt opens a span with a caller-chosen id whose start is an
// earlier instant, such as the due time of a request that left late.
func (r *Recorder) StartAt(at time.Time, name string, id, parent, req uint64) *Open {
	if r == nil {
		return nil
	}
	return &Open{r: r, span: Span{Name: name, ID: id, Parent: parent, Req: req, Start: r.since(at)}}
}

func (r *Recorder) since(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

// ID is the span's id, 0 for a nil span.
func (o *Open) ID() uint64 {
	if o == nil {
		return 0
	}
	return o.span.ID
}

// End closes the span now and records it.
func (o *Open) End() {
	if o == nil {
		return
	}
	o.EndAt(time.Now())
}

// EndAt closes the span at t and records it.
func (o *Open) EndAt(t time.Time) {
	if o == nil {
		return
	}
	o.span.End = o.r.since(t)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.span)
	o.r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far, ordered by start.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteFile writes the recorded spans as one JSON array.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return fmt.Errorf("spans: encode: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// ReadFile loads spans written by WriteFile.
func ReadFile(path string) ([]Span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	var out []Span
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("spans: decode %s: %w", path, err)
	}
	return out, nil
}

type parentKey struct{}

// WithParent stores a span id in ctx so that calls made with it, even
// through code that only passes the context along, can name their
// parent.
func WithParent(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

// ParentOf returns the span id WithParent stored, or 0.
func ParentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(parentKey{}).(uint64)
	return id
}

// SelfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover. Children may overlap
// one another, as the calls of two crawl workers do; covered time is
// the union of their intervals, clipped to the parent's.
func SelfTimes(all []Span) map[uint64]time.Duration {
	children := make(map[uint64][][2]int64)
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]time.Duration, len(all))
	for _, s := range all {
		out[s.ID] = s.Dur() - time.Duration(covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total int64
	curLo, curHi := int64(math.MinInt64), int64(math.MinInt64)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, iv := range sorted {
		if iv[0] > curHi {
			flush()
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	flush()
	return total
}
