// Command ensbench runs one benchmark workload in one process and
// prints its metrics:
//
//	ensbench --workload crawl --seed 1 --seconds 20 --trace 0
//
// Every metric is printed as a line "<workload> <metric> <value>
// <unit> n=<samples>", and the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// second half of the run is measured with spans and the metrics are the
// per-layer ones, derived from the spans written to --spans. The
// command exits 1 when any output check fails and 2 on a usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ensdropcatch/bench/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ensbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workload.Workloads))
	seed := fs.Int64("seed", 1, "seed for the world and the request schedule")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 measures the second half of the run with spans and reports per-layer metrics")
	spansPath := fs.String("spans", "", "file the traced run writes its spans to (default under -work)")
	work := fs.String("work", ".bench_build/work", "directory for snapshots and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "ensbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "ensbench: %v\n", err)
		return 1
	}
	o := workload.Options{
		Workload: *name,
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		WorkDir:  *work,
		Log:      stderr,
	}
	if o.Trace {
		o.SpansPath = *spansPath
		if o.SpansPath == "" {
			o.SpansPath = workload.DefaultSpansPath(*work, *name, *seed)
		}
	}
	return execute(ctx, o, stdout, stderr)
}

// execute runs one workload and reports it; the exit code is 1 when
// the run or an output check failed.
func execute(ctx context.Context, o workload.Options, stdout, stderr io.Writer) int {
	res, err := workload.Run(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "ensbench: %v\n", err)
		return 1
	}
	if err := report(stdout, res, o.Trace); err != nil {
		fmt.Fprintf(stderr, "ensbench: %v\n", err)
		return 1
	}
	for _, m := range res.Context {
		fmt.Fprintf(stderr, "ensbench: context, not gated: %s %s %v %s n=%d\n", res.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "ensbench: check failed: %s\n", e)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints the metric lines and, last, the JSON summary. A traced
// run's summary holds the per-layer metrics; the end-to-end lines are
// printed either way.
func report(w io.Writer, res *workload.Result, traced bool) error {
	s := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	emit := func(ms []workload.Metric, keep bool) {
		for _, m := range ms {
			fmt.Fprintf(w, "%s %s %v %s n=%d\n", res.Workload, m.Name, m.Value, m.Unit, m.N)
			if keep {
				s.Metrics[m.Name] = value{m.Value, m.Unit}
			}
		}
	}
	emit(res.E2E, !traced)
	emit(res.Layers, traced)
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("encode summary: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
