package obs

import (
	"math"
	"net/http"
	"strings"
)

// OpenMetricsContentType is the OpenMetrics exposition content type;
// it is what carries exemplars (the classic text format cannot).
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Exemplar ties one concrete observation to the trace that produced
// it: the bridge from "the p99 is bad" to "here is a trace id to pull
// from /debug/traces/{id}".
type Exemplar struct {
	TraceID string
	Value   float64
}

// ObserveExemplar records v and, when traceID is non-empty, pins it as
// the bucket's exemplar (latest observation wins). It is
// allocation-free with an empty traceID, which is all Observe is.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// BucketExemplar returns bucket i's exemplar (i == len(buckets) is
// +Inf), nil when none has been recorded.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// AcceptsOpenMetrics reports whether the request's Accept header asks
// for the OpenMetrics exposition format.
func AcceptsOpenMetrics(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
}
