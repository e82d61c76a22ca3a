package trace

import (
	"flag"
	"time"
)

// Flags binds the tracing flag set shared by the ens commands.
type Flags struct {
	Enabled  bool
	Sample   float64
	Capacity int
	Slow     time.Duration
	Seed     int64
}

// RegisterFlags wires -trace, -trace-sample, -trace-store, -trace-slow
// and -trace-seed onto fs; on is the -trace default. The server traces
// by default: the tail-sampled store is how a shed or slow request is
// explained after the fact. The crawl opts in, so its hot path stays
// zero-allocation unless the operator asks for span attribution.
func RegisterFlags(fs *flag.FlagSet, on bool) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Enabled, "trace", on, "trace requests into an in-memory tail-sampled store served at /debug/traces (by enscrawl only with -metrics-addr)")
	fs.Float64Var(&f.Sample, "trace-sample", 0.01, "probability of keeping an ordinary trace; errored, shed, and slow traces are always kept")
	fs.IntVar(&f.Capacity, "trace-store", 512, "trace-store capacity; ordinary traces are evicted before errored/slow ones")
	fs.DurationVar(&f.Slow, "trace-slow", 250*time.Millisecond, "traces at least this slow are always kept")
	fs.Int64Var(&f.Seed, "trace-seed", 0, "seed for trace ids and the sampling coin (0 = random)")
	return f
}

// Tracer builds the configured tracer, or nil when tracing is disabled;
// the nil tracer is the zero-allocation path.
func (f *Flags) Tracer() *Tracer {
	if !f.Enabled {
		return nil
	}
	return New(Config{
		Seed: f.Seed,
		Store: NewStore(StoreConfig{
			Capacity:      f.Capacity,
			SampleRate:    f.Sample,
			SlowThreshold: f.Slow,
			Seed:          f.Seed,
		}),
	})
}
