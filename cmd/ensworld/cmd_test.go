package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

// traceFlagNames is the flag set every ens command must expose for
// tracing; the e2e harnesses and the README examples depend on them.
var traceFlagNames = []string{"trace", "trace-sample", "trace-store", "trace-slow", "trace-seed"}

func TestTraceFlagsInHelp(t *testing.T) {
	var help bytes.Buffer
	flag.CommandLine.SetOutput(&help)
	defer flag.CommandLine.SetOutput(nil)
	flag.CommandLine.PrintDefaults()
	for _, name := range traceFlagNames {
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
	if !traceFlags.Enabled {
		t.Error("server tracing should default on")
	}
	if traceFlags.Capacity != 512 || traceFlags.Sample != 0.01 {
		t.Errorf("unexpected defaults: capacity=%d sample=%v", traceFlags.Capacity, traceFlags.Sample)
	}
}

func TestTracerConstruction(t *testing.T) {
	off := *traceFlags
	off.Enabled = false
	if off.Tracer() != nil {
		t.Fatal("-trace=false built a tracer")
	}
	tr := traceFlags.Tracer()
	if tr == nil {
		t.Fatal("default ensworld flags built no tracer")
	}
	if got := tr.Store().Capacity(); got != 512 {
		t.Errorf("store capacity = %d, want the -trace-store default 512", got)
	}
}
