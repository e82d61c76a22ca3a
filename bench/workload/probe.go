package workload

import (
	"bytes"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ensdropcatch/internal/obs"
)

// runtime/metrics samples the per-layer runtime numbers are built from.
const (
	rmGCCycles  = "/gc/cycles/total:gc-cycles"
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rmAllocB    = "/gc/heap/allocs:bytes"
	rmAllocObj  = "/gc/heap/allocs:objects"
	rmGCPauses  = "/sched/pauses/total/gc:seconds"
	rmSchedLat  = "/sched/latencies:seconds"
	obsQueueLat = "overload_queue_wait_seconds"
)

// snapshot is the program's counters at one instant: runtime/metrics
// and the obs.Default exposition.
type snapshot struct {
	scalar map[string]float64
	hist   map[string]*metrics.Float64Histogram
	obs    map[string]float64 // series (name plus labels) -> value
}

func takeSnapshot() snapshot {
	samples := []metrics.Sample{
		{Name: rmGCCycles}, {Name: rmGCCPU}, {Name: rmTotalCPU},
		{Name: rmAllocB}, {Name: rmAllocObj}, {Name: rmGCPauses}, {Name: rmSchedLat},
	}
	metrics.Read(samples)
	s := snapshot{scalar: map[string]float64{}, hist: map[string]*metrics.Float64Histogram{}, obs: scrapeObs()}
	for _, sm := range samples {
		switch sm.Value.Kind() {
		case metrics.KindUint64:
			s.scalar[sm.Name] = float64(sm.Value.Uint64())
		case metrics.KindFloat64:
			s.scalar[sm.Name] = sm.Value.Float64()
		case metrics.KindFloat64Histogram:
			s.hist[sm.Name] = sm.Value.Float64Histogram()
		}
	}
	return s
}

// scrapeObs parses the obs.Default text exposition into series values.
func scrapeObs() map[string]float64 {
	var buf bytes.Buffer
	_, _ = obs.Default.WriteTo(&buf) // a bytes.Buffer write cannot fail
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

func (s snapshot) delta(prev snapshot, name string) float64 {
	return s.scalar[name] - prev.scalar[name]
}

// obsSum is the delta of every series of one obs family (all label
// values summed).
func (s snapshot) obsSum(prev snapshot, family string) float64 {
	var d float64
	for k, v := range s.obs {
		if k == family || strings.HasPrefix(k, family+"{") {
			d += v - prev.obs[k]
		}
	}
	return d
}

// obsQuantile estimates the q-quantile of an unlabelled obs histogram
// over the interval between prev and s, interpolating inside a bucket
// as obs.Histogram.Quantile does.
func (s snapshot) obsQuantile(prev snapshot, family string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := family + `_bucket{le="`
	for k, v := range s.obs {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // the +Inf bucket
		}
		bs = append(bs, bucket{le, v - prev.obs[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := s.obs[family+"_count"] - prev.obs[family+"_count"]
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	rank := q * total
	lower, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank && b.cum > prevCum {
			return lower + (b.le-lower)*(rank-prevCum)/(b.cum-prevCum)
		}
		lower, prevCum = b.le, b.cum
	}
	return bs[len(bs)-1].le
}

// histQuantile is the q-quantile of the difference of two runtime
// histograms, as the upper bound of the bucket it falls in. A
// histogram missing from prev counts as empty.
func (s snapshot) histQuantile(prev snapshot, name string, q float64) float64 {
	h, p := s.hist[name], prev.hist[name]
	if h == nil || (p != nil && len(h.Counts) != len(p.Counts)) {
		return 0
	}
	var total uint64
	counts := make([]uint64, len(h.Counts))
	for i := range h.Counts {
		counts[i] = h.Counts[i]
		if p != nil {
			counts[i] -= p.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
