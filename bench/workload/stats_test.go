package workload

import (
	"testing"
	"time"
)

func TestQuantileAndBeyond(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i))
	}
	for _, tc := range []struct {
		q      float64
		want   time.Duration
		beyond int
	}{{0.5, 500, 500}, {0.9, 900, 100}, {0.99, 990, 10}, {0.999, 999, 1}, {1, 1000, 0}, {0, 1, 999}} {
		if got := quantile(ds, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
		if got := beyond(len(ds), tc.q); got != tc.beyond {
			t.Errorf("beyond(%v) = %d, want %d", tc.q, got, tc.beyond)
		}
	}
	if quantile(nil, 0.5) != 0 || beyond(0, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// The obs histogram delta is read back from the text exposition.
func TestObsQuantileFromExposition(t *testing.T) {
	before := snapshot{obs: map[string]float64{
		`h_bucket{le="0.001"}`: 10, `h_bucket{le="0.01"}`: 10, `h_bucket{le="+Inf"}`: 10, "h_count": 10,
	}}
	after := snapshot{obs: map[string]float64{
		`h_bucket{le="0.001"}`: 60, `h_bucket{le="0.01"}`: 110, `h_bucket{le="+Inf"}`: 110, "h_count": 110,
	}}
	// 100 new observations: 50 up to 1ms, 50 in (1ms, 10ms].
	if got := after.obsQuantile(before, "h", 0.5); got != 0.001 {
		t.Errorf("p50 = %v, want 0.001", got)
	}
	if got := after.obsQuantile(before, "h", 0.99); got < 0.0098 || got > 0.01 {
		t.Errorf("p99 = %v, want just under 0.01", got)
	}
	if got := after.obsSum(before, "h_count"); got != 100 {
		t.Errorf("obsSum = %v, want 100", got)
	}
}
