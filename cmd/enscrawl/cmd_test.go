package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

func TestTraceFlagsInHelp(t *testing.T) {
	var help bytes.Buffer
	flag.CommandLine.SetOutput(&help)
	defer flag.CommandLine.SetOutput(nil)
	flag.CommandLine.PrintDefaults()
	for _, name := range []string{"trace", "trace-sample", "trace-store", "trace-slow", "trace-seed"} {
		f := flag.CommandLine.Lookup(name)
		if f == nil {
			t.Errorf("flag -%s not registered", name)
			continue
		}
		if f.Usage == "" {
			t.Errorf("flag -%s has no usage text", name)
		}
		if !strings.Contains(help.String(), "-"+name) {
			t.Errorf("help output does not mention -%s", name)
		}
	}
	if traceFlags.Enabled {
		t.Error("crawl tracing should default off (zero-allocation hot path)")
	}
}

func TestTracerConstruction(t *testing.T) {
	if traceFlags.Tracer() != nil {
		t.Fatal("default enscrawl flags built a tracer")
	}
	on := *traceFlags
	on.Enabled = true
	tr := on.Tracer()
	if tr == nil {
		t.Fatal("-trace built no tracer")
	}
	if got := tr.Store().Capacity(); got != 512 {
		t.Errorf("store capacity = %d, want the -trace-store default 512", got)
	}
}
