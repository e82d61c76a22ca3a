// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so benchmark results can be archived and diffed across
// commits (the Makefile bench target writes BENCH_PR3.json with it).
//
// Every `Benchmark*` line becomes one entry keyed by benchmark name (the
// -cpu suffix stripped): iterations, ns/op, B/op, allocs/op, and every
// custom metric reported via b.ReportMetric.
//
// Example:
//
//	go test -bench=. -benchmem . | benchjson -o BENCH_PR3.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	entries, err := Parse(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found")
		os.Exit(1)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		names := make([]string, 0, len(entries))
		for n := range entries {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(names), *out)
	}
}

// Parse reads `go test -bench` output and returns entries keyed by
// benchmark name. A name appearing more than once (e.g. -count>1) keeps
// its last result.
func Parse(r io.Reader) (map[string]Entry, error) {
	entries := map[string]Entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := stripCPUSuffix(fields[0])
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // status line like "BenchmarkFoo", not a result
		}
		e := Entry{Iterations: iters, Metrics: map[string]float64{}}
		// The remainder alternates (value, unit).
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			case "MB/s":
				e.Metrics["MB/s"] = v
			default:
				e.Metrics[unit] = v
			}
		}
		if len(e.Metrics) == 0 {
			e.Metrics = nil
		}
		entries[name] = e
	}
	return entries, sc.Err()
}

// stripCPUSuffix removes the trailing -N GOMAXPROCS marker go test adds.
func stripCPUSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
