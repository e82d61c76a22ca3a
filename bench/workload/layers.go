package workload

import (
	"runtime/metrics"
	"strings"
	"time"

	"ensdropcatch/bench/loadgen"
	"ensdropcatch/bench/spans"
)

// MetricDef declares one metric: its unit, which direction is better
// and, for a per-layer metric, the end-to-end metric it should move and
// the workloads where it should.
type MetricDef struct {
	Name, Unit, Better string
	Moves              string
	On                 []string
}

// E2E lists the end-to-end metrics every untraced run reports.
var E2E = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "throughput", Unit: "1/s", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

var (
	serveBoth = []string{ServeHot, ServeCold}
	crawlOnly = []string{Crawl}
	analyseOn = []string{Analyse}
	batch     = []string{Crawl, Analyse}
)

func layer(name, unit, better, moves string, on ...[]string) MetricDef {
	d := MetricDef{Name: name, Unit: unit, Better: better, Moves: moves}
	for _, o := range on {
		d.On = append(d.On, o...)
	}
	return d
}

// Layers lists every per-layer metric a traced run reports, on every
// workload; a layer the workload does not reach reads 0. Times and
// counts are per pass (one crawl or analyse pass; a serve run is one
// pass) unless the name says otherwise.
var Layers = []MetricDef{
	layer("runtime.gc_cycles", "count", "lower", "throughput", serveBoth),
	layer("runtime.gc_cpu_frac", "frac", "lower", "throughput", serveBoth),
	layer("runtime.gc_pause_p99_ms", "ms", "lower", "p50_ms", serveBoth),
	layer("runtime.sched_latency_p99_ms", "ms", "lower", "p50_ms", serveBoth),
	layer("runtime.alloc_mb", "MB", "lower", "throughput", crawlOnly),
	layer("runtime.allocs_per_item", "count", "lower", "throughput", crawlOnly),
	layer("world.generate_s", "s", "lower", "setup_s", Workloads),
	layer("serve.new_s", "s", "lower", "setup_s", Workloads),
	layer("setup.reference_s", "s", "lower", "setup_s", Workloads),
	layer("serve.subgraph.p50_ms", "ms", "lower", "p50_ms", serveBoth),
	layer("serve.subgraph.p99_ms", "ms", "lower", "p50_ms", serveBoth),
	layer("serve.subgraph.busy_s", "s", "lower", "throughput", crawlOnly, []string{ServeCold}),
	layer("serve.etherscan.p50_ms", "ms", "lower", "p50_ms", serveBoth),
	layer("serve.etherscan.p99_ms", "ms", "lower", "p50_ms", serveBoth),
	layer("serve.etherscan.busy_s", "s", "lower", "throughput", crawlOnly, []string{ServeCold}),
	layer("serve.opensea.p50_ms", "ms", "lower", "p50_ms", serveBoth),
	layer("serve.opensea.p99_ms", "ms", "lower", "p50_ms", serveBoth),
	layer("serve.opensea.busy_s", "s", "lower", "throughput", crawlOnly, []string{ServeCold}),
	layer("net.client_minus_server_p50_ms", "ms", "lower", "p50_ms", []string{ServeHot}),
	layer("pagecache.hit_frac", "frac", "higher", "p50_ms", []string{ServeHot}),
	layer("pagecache.hits", "count", "higher", "p50_ms", []string{ServeHot}),
	layer("pagecache.misses", "count", "lower", "p50_ms", []string{ServeHot}),
	layer("pagecache.evictions", "count", "lower", "p50_ms", []string{ServeHot}),
	layer("overload.queue_wait_p99_ms", "ms", "lower", "p50_ms", []string{ServeCold}),
	layer("overload.sheds", "count", "lower", "p50_ms", []string{ServeCold}),
	layer("subgraph.pageall_s", "s", "lower", "throughput", crawlOnly),
	layer("etherscan.txlist.calls", "count", "lower", "throughput", crawlOnly),
	layer("etherscan.txlist.busy_s", "s", "lower", "throughput", crawlOnly),
	layer("etherscan.txlist.p99_ms", "ms", "lower", "throughput", crawlOnly),
	layer("etherscan.labels_s", "s", "lower", "throughput", crawlOnly),
	layer("opensea.events.busy_s", "s", "lower", "throughput", crawlOnly),
	layer("etherscan.client_overhead_s", "s", "lower", "throughput", crawlOnly),
	layer("crawler.retries", "count", "lower", "throughput", crawlOnly),
	layer("crawler.ratelimit_wait_s", "s", "lower", "throughput", crawlOnly),
	layer("dataset.build_self_s", "s", "lower", "throughput", crawlOnly),
	layer("dataset.save_s", "s", "lower", "throughput", crawlOnly),
	layer("dataset.load_s", "s", "lower", "p50_ms", analyseOn),
	layer("core.new_analyzer_s", "s", "lower", "p50_ms", analyseOn),
	layer("core.timeseries_s", "s", "lower", "p50_ms", analyseOn),
	layer("core.survival_s", "s", "lower", "p50_ms", analyseOn),
	layer("core.table1_s", "s", "lower", "p50_ms", analyseOn),
	layer("core.losses_s", "s", "lower", "p50_ms", analyseOn),
	layer("core.countermeasure_s", "s", "lower", "p50_ms", analyseOn),
	layer("core.resolutionlog_s", "s", "lower", "p50_ms", analyseOn),
	layer("par.tasks", "count", "lower", "p50_ms", analyseOn),
	layer("par.queue_wait_s", "s", "lower", "p50_ms", analyseOn),
	layer("report.render_s", "s", "lower", "p50_ms", analyseOn),
	layer("loadgen.late_p99_ms", "ms", "lower", "p50_ms", serveBoth),
	layer("loadgen.local_drops", "count", "lower", "p50_ms", serveBoth),
	layer("trace.coverage_frac", "frac", "higher", "p50_ms", batch),
	layer("trace_overhead.p50", "frac", "lower", "p50_ms", Workloads),
	layer("trace_overhead.throughput", "frac", "lower", "throughput", Workloads),
}

// window accumulates program counters over the timed parts of a
// traced measurement only, leaving out set-up and output checks.
type window struct {
	pairs [][2]snapshot
	open  snapshot
}

func (w *window) begin() {
	if w != nil {
		w.open = takeSnapshot()
	}
}

func (w *window) end() {
	if w != nil {
		w.pairs = append(w.pairs, [2]snapshot{w.open, takeSnapshot()})
	}
}

func (w *window) sum(f func(after, before snapshot) float64) float64 {
	var t float64
	for _, p := range w.pairs {
		t += f(p[1], p[0])
	}
	return t
}

func (w *window) runtime(name string) float64 {
	return w.sum(func(a, b snapshot) float64 { return a.delta(b, name) })
}

func (w *window) obs(family string) float64 {
	return w.sum(func(a, b snapshot) float64 { return a.obsSum(b, family) })
}

// obsQuantile and histQuantile merge the windows into one interval;
// with a single window (the serve workloads) that is exact, and across
// passes the quantile of the passes' pooled observations.
func (w *window) obsQuantile(family string, q float64) float64 {
	if len(w.pairs) == 0 {
		return 0
	}
	return w.merged().obsQuantile(snapshot{}, family, q)
}

func (w *window) histQuantile(name string, q float64) float64 {
	if len(w.pairs) == 0 {
		return 0
	}
	return w.merged().histQuantile(snapshot{}, name, q)
}

// merged is one snapshot holding the summed deltas of every window, so
// that differencing it against an empty snapshot yields them.
func (w *window) merged() snapshot {
	m := snapshot{obs: map[string]float64{}, hist: map[string]*metrics.Float64Histogram{}}
	for _, p := range w.pairs {
		for k, v := range p[1].obs {
			m.obs[k] += v - p[0].obs[k]
		}
		for k, h := range p[1].hist {
			prev := p[0].hist[k]
			if prev == nil || len(prev.Counts) != len(h.Counts) {
				continue
			}
			sum := m.hist[k]
			if sum == nil {
				sum = &metrics.Float64Histogram{Buckets: h.Buckets, Counts: make([]uint64, len(h.Counts))}
				m.hist[k] = sum
			}
			for i := range h.Counts {
				sum.Counts[i] += h.Counts[i] - prev.Counts[i]
			}
		}
	}
	return m
}

// layerMetrics derives every per-layer metric from the traced run:
// its spans, the counter windows, and the untraced half before it.
func layerMetrics(all []spans.Span, rootPrefix string, base, traced *measurement, w *window) []Metric {
	passes := float64(max(traced.passes, 1))
	self := spans.SelfTimes(all)
	byName := map[string][]spans.Span{}
	for _, s := range all {
		byName[s.Name] = append(byName[s.Name], s)
	}
	busy := func(name string) float64 {
		var t time.Duration
		for _, s := range byName[name] {
			t += s.Dur()
		}
		return t.Seconds() / passes
	}
	selfOf := func(name string) float64 {
		var t time.Duration
		for _, s := range byName[name] {
			t += self[s.ID]
		}
		return t.Seconds() / passes
	}
	durs := func(name string) []time.Duration {
		var ds []time.Duration
		for _, s := range byName[name] {
			ds = append(ds, s.Dur())
		}
		return sortDurations(ds)
	}
	pct := func(name string, q float64) float64 { return ms(quantile(durs(name), q)) }
	med := func(name string) float64 { return median(durs(name)).Seconds() }

	v := map[string]float64{
		"runtime.gc_cycles":            w.runtime(rmGCCycles) / passes,
		"runtime.gc_cpu_frac":          ratio(w.runtime(rmGCCPU), w.runtime(rmTotalCPU)),
		"runtime.gc_pause_p99_ms":      1000 * w.histQuantile(rmGCPauses, 0.99),
		"runtime.sched_latency_p99_ms": 1000 * w.histQuantile(rmSchedLat, 0.99),
		"runtime.alloc_mb":             w.runtime(rmAllocB) / passes / (1 << 20),
		"runtime.allocs_per_item":      ratio(w.runtime(rmAllocObj), float64(traced.items)),
		"world.generate_s":             med("world.generate"),
		"serve.new_s":                  med("serve.new"),
		"setup.reference_s":            med("setup.reference"),
		"overload.queue_wait_p99_ms":   1000 * w.obsQuantile(obsQueueLat, 0.99),
		"overload.sheds":               w.obs("overload_shed_total") / passes,
		"pagecache.evictions":          w.obs("pagecache_evictions_total") / passes,
		"subgraph.pageall_s":           busy("subgraph.pageall"),
		"etherscan.txlist.calls":       float64(len(byName["etherscan.txlist"])) / passes,
		"etherscan.txlist.busy_s":      busy("etherscan.txlist"),
		"etherscan.txlist.p99_ms":      pct("etherscan.txlist", 0.99),
		"etherscan.labels_s":           busy("etherscan.labels"),
		"opensea.events.busy_s":        busy("opensea.events"),
		"crawler.ratelimit_wait_s":     w.obs("crawler_ratelimit_wait_seconds_sum") / passes,
		"dataset.build_self_s":         selfOf("dataset.build"),
		"dataset.save_s":               busy("dataset.save"),
		"dataset.load_s":               busy("dataset.load"),
		"par.tasks":                    w.obs("par_tasks_total") / passes,
		"par.queue_wait_s":             w.obs("par_queue_wait_seconds_sum") / passes,
		"report.render_s":              busy("report.render"),
	}
	for _, name := range []string{"new_analyzer", "timeseries", "survival", "table1", "losses", "countermeasure", "resolutionlog"} {
		v["core."+name+"_s"] = busy("core." + name)
	}
	for _, r := range loadgen.Routes {
		v["serve."+r+".p50_ms"] = pct("serve."+r, 0.5)
		v["serve."+r+".p99_ms"] = pct("serve."+r, 0.99)
		v["serve."+r+".busy_s"] = busy("serve." + r)
	}
	if len(byName["etherscan.txlist"]) > 0 {
		// Client decode plus transport: the crawler's txlist time less
		// the server's time answering it.
		v["etherscan.client_overhead_s"] = v["etherscan.txlist.busy_s"] - v["serve.etherscan.busy_s"]
	}
	hits, misses := w.obs("pagecache_hits_total"), w.obs("pagecache_misses_total")
	v["pagecache.hits"], v["pagecache.misses"] = hits/passes, misses/passes
	v["pagecache.hit_frac"] = ratio(hits, hits+misses)
	v["crawler.retries"] = (w.obs("etherscan_client_errors_total") + w.obs("etherscan_client_ratelimited_total") +
		w.obs("subgraph_client_errors_total") + w.obs("opensea_client_errors_total")) / passes

	// Coverage: the share of the untraced median unit of work that the
	// traced run's layer spans account for, i.e. the median root span
	// minus its own unattributed time.
	var covered []time.Duration
	for _, s := range all {
		if strings.HasPrefix(s.Name, rootPrefix) {
			covered = append(covered, s.Dur()-self[s.ID])
		}
	}
	v["trace.coverage_frac"] = ratio(median(covered).Seconds(), base.p50.Seconds())
	v["trace_overhead.p50"] = ratio(traced.p50.Seconds(), base.p50.Seconds()) - 1
	v["trace_overhead.throughput"] = ratio(base.throughput, traced.throughput) - 1

	for k, x := range traced.layers {
		v[k] = x
	}
	out := make([]Metric, 0, len(Layers))
	for _, d := range Layers {
		out = append(out, Metric{Name: d.Name, Value: v[d.Name], Unit: d.Unit, N: traced.passes})
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
