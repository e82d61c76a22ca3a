// Package workload runs the benchmark's four workloads in one process
// and reports their end-to-end and per-layer metrics. Every layer is
// measured from outside the program: the benchmark times its calls into
// public functions, wraps the three crawl sources and the serve stack's
// handler, and reads runtime/metrics and deltas of obs.Default.
package workload

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ensdropcatch/bench/spans"
)

// Names of the workloads, in the order BENCHMARK.json lists them.
const (
	Crawl     = "crawl"
	Analyse   = "analyse"
	ServeHot  = "serve-hot"
	ServeCold = "serve-cold"
)

// Workloads lists every workload name.
var Workloads = []string{Crawl, Analyse, ServeHot, ServeCold}

// Options selects and sizes one run.
type Options struct {
	Workload string
	Seed     int64
	// Duration is how long the run measures. Set-up and the checks
	// that follow each pass come on top.
	Duration time.Duration
	// Trace measures the second half of the run with spans and reports
	// per-layer metrics, written to SpansPath.
	Trace     bool
	SpansPath string
	// WorkDir holds the snapshots the crawl and analyse workloads
	// write; it must exist.
	WorkDir string
	// Domains overrides the workload's world size (0 keeps the
	// benchmark's size); the smoke test runs tiny worlds.
	Domains int
	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
	// Wrap, when set, wraps the serve stack's handler. Tests use it to
	// corrupt answers.
	Wrap func(http.Handler) http.Handler
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Metric is one reported number with its unit and sample count.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// Result is a finished run.
type Result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	// Errors holds the first failed checks, for the log.
	Errors []string
	// Context are numbers printed for the reader but not gated: the
	// serve workloads' closed-phase tail and open-phase latencies.
	Context []Metric
	// E2E are the end-to-end metrics of the untraced measurement.
	E2E []Metric
	// Layers are the per-layer metrics of the traced measurement; nil
	// when Trace is off.
	Layers []Metric
	// PlanHash fingerprints the serve workloads' request plan;
	// Fingerprint is the crawl workload's dataset fingerprint.
	PlanHash    uint64
	Fingerprint uint64
}

// maxConns caps the load generator's and crawler's connections at the
// machine's core count, so client and server share the cores evenly.
func maxConns() int { return runtime.NumCPU() }

// measurement is what one timed run of a workload yields.
type measurement struct {
	p50 time.Duration
	n50 int
	// throughput is units of work (txs, domains, answers) per CPU-second
	// of the whole process, server and clients together.
	throughput float64
	attempted  int
	failed     int
	errs       []string
	// passes normalises per-layer totals; a serve run is one pass.
	passes int
	// items is the work the throughput counts: txs, domains, requests.
	items int
	// layers are workload-specific per-layer values.
	layers      map[string]float64
	context     []Metric
	planHash    uint64
	fingerprint uint64
}

func (m *measurement) fail(err error) {
	m.failed++
	if len(m.errs) < 5 {
		m.errs = append(m.errs, err.Error())
	}
}

// runner is one workload's set-up, measurement and release.
type runner interface {
	setup(ctx context.Context, rec *spans.Recorder, parent uint64) error
	// measure runs the workload for d. In traced runs rec records spans
	// and w brackets the timed parts; both are nil otherwise.
	measure(ctx context.Context, rec *spans.Recorder, w *window, d time.Duration) (*measurement, error)
	// rootPrefix names the spans that each cover one unit of work.
	rootPrefix() string
	close()
}

func newRunner(o Options) (runner, error) {
	size := func(def int) int {
		if o.Domains > 0 {
			return o.Domains
		}
		return def
	}
	switch o.Workload {
	case Crawl:
		return &crawl{seed: o.Seed, domains: size(crawlDomains), workDir: o.WorkDir}, nil
	case Analyse:
		return &analyse{seed: o.Seed, domains: size(analyseDomains), workDir: o.WorkDir}, nil
	case ServeHot:
		return &serveLoad{seed: o.Seed, domains: size(serveDomains), hot: true, wrap: o.Wrap}, nil
	case ServeCold:
		return &serveLoad{seed: o.Seed, domains: size(serveDomains), wrap: o.Wrap}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.Workload, Workloads)
}

// Run sets the workload up SetupReps times, then measures it untraced
// or, with Trace, half untraced and half traced.
func Run(ctx context.Context, o Options) (*Result, error) {
	if o.Duration <= 0 {
		return nil, errors.New("workload: duration must be positive")
	}
	if o.SetupReps <= 0 {
		o.SetupReps = 3
	}
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, "ensbench: "+format+"\n", args...)
		}
	}
	r, err := newRunner(o)
	if err != nil {
		return nil, err
	}
	var rec *spans.Recorder
	if o.Trace {
		rec = spans.NewRecorder()
	}

	var setupTimes []time.Duration
	for i := 0; i < o.SetupReps; i++ {
		if i > 0 {
			r.close()
			runtime.GC() // the previous set-up's world is garbage now
		}
		sp := rec.Start("setup", 0, 0)
		t0 := time.Now()
		if err := r.setup(ctx, rec, sp.ID()); err != nil {
			r.close()
			return nil, fmt.Errorf("%s set-up: %w", o.Workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0))
		sp.End()
		logf("%s set-up %d/%d took %v", o.Workload, i+1, o.SetupReps, setupTimes[i].Round(time.Millisecond))
	}
	defer r.close()
	runtime.GC()

	// A traced run spends half its time untraced and half traced, so
	// it takes as long as an untraced one.
	d := o.Duration
	if o.Trace {
		d /= 2
	}
	base, err := r.measure(ctx, nil, nil, d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	logf("%s measured: %d attempted, %d failed", o.Workload, base.attempted, base.failed)
	res := &Result{
		Workload:    o.Workload,
		Context:     base.context,
		Attempted:   base.attempted,
		Failed:      base.failed,
		Errors:      base.errs,
		PlanHash:    base.planHash,
		Fingerprint: base.fingerprint,
	}

	if o.Trace {
		runtime.GC()
		w := &window{}
		traced, err := r.measure(ctx, rec, w, d)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", o.Workload, err)
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		res.Errors = append(res.Errors, traced.errs...)
		all := rec.Spans()
		res.Layers = layerMetrics(all, r.rootPrefix(), base, traced, w)
		if o.SpansPath != "" {
			if err := rec.WriteFile(o.SpansPath); err != nil {
				return nil, err
			}
			logf("%d spans written to %s", len(all), o.SpansPath)
		}
	}
	e2e := map[string]Metric{
		"setup_s":     {Value: median(setupTimes).Seconds(), N: len(setupTimes)},
		"p50_ms":      {Value: ms(base.p50), N: base.n50},
		"throughput":  {Value: base.throughput, N: base.n50},
		"peak_rss_mb": {Value: peakRSSMB(), N: 1},
	}
	for _, d := range E2E {
		m := e2e[d.Name]
		m.Name, m.Unit = d.Name, d.Unit
		res.E2E = append(res.E2E, m)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// DefaultSpansPath is where a traced run writes its spans when the
// caller names no file.
func DefaultSpansPath(workDir, workload string, seed int64) string {
	return filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
}

// timing is how long one unit of work took, in wall-clock time and in
// CPU time of the whole process.
type timing struct{ wall, cpu time.Duration }

type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (s stopwatch) stop() timing {
	return timing{time.Since(s.wall), cpuTime() - s.cpu}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rank is the index of the nearest-rank q-quantile among n sorted
// samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// beyond counts the samples strictly past the nearest-rank q-quantile.
func beyond(n int, q float64) int { return max(n-1-rank(n, q), 0) }

func sortDurations(ds []time.Duration) []time.Duration {
	out := slices.Clone(ds)
	slices.Sort(out)
	return out
}

func median[T ~int64 | ~float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
