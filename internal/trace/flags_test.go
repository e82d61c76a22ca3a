package trace

import (
	"bytes"
	"flag"
	"strings"
	"testing"
	"time"
)

// TestTraceFlagsInHelp checks the flag set under both -trace defaults
// the commands use: off for enscrawl, on for ensworld.
func TestTraceFlagsInHelp(t *testing.T) {
	for _, on := range []bool{false, true} {
		fs := flag.NewFlagSet("ens", flag.ContinueOnError)
		f := RegisterFlags(fs, on)
		var help bytes.Buffer
		fs.SetOutput(&help)
		fs.PrintDefaults()
		for _, name := range []string{"trace", "trace-sample", "trace-store", "trace-slow", "trace-seed"} {
			fl := fs.Lookup(name)
			if fl == nil {
				t.Errorf("flag -%s not registered", name)
				continue
			}
			if fl.Usage == "" {
				t.Errorf("flag -%s has no usage text", name)
			}
			if !strings.Contains(help.String(), "-"+name) {
				t.Errorf("help output does not mention -%s", name)
			}
		}
		if f.Enabled != on {
			t.Errorf("-trace defaults to %v, want %v", f.Enabled, on)
		}
		if f.Capacity != 512 || f.Sample != 0.01 || f.Slow != 250*time.Millisecond || f.Seed != 0 {
			t.Errorf("unexpected defaults: %+v", *f)
		}
	}
}

func TestTracerConstruction(t *testing.T) {
	if (&Flags{}).Tracer() != nil {
		t.Fatal("disabled flags built a tracer")
	}
	for _, f := range []Flags{
		{Enabled: true, Sample: 0.5, Capacity: 32, Slow: 100 * time.Millisecond, Seed: 7},
		{Enabled: true, Sample: 1, Capacity: 8, Slow: time.Second, Seed: 42},
	} {
		tr := f.Tracer()
		if tr == nil {
			t.Fatalf("enabled flags %+v built no tracer", f)
		}
		if got := tr.Store().Capacity(); got != f.Capacity {
			t.Errorf("store capacity = %d, want %d", got, f.Capacity)
		}
	}
}
