// Command enslint runs the project's go/analysis suite (internal/lint):
// the nine custom analyzers — detrand, maporder, iodiscipline,
// floatfold, droppederr, ctxflow, mutexguard, hotpathalloc, boundedres
// — plus the upstream lostcancel and copylocks passes.
//
// It works in two modes:
//
//	enslint [flags] <packages>   # driver mode: analyzes packages
//	go vet -vettool=enslint      # unitchecker mode (what mode 1 uses inside)
//
// Driver mode re-executes `go vet -vettool=<self>` so the go command
// does the package loading; that keeps the binary free of any
// build-graph machinery and works offline. Exit status is non-zero iff
// a diagnostic was reported.
//
// Driver flags:
//
//	-enable a,b          run only the named analyzers
//	-disable a,b         run all but the named analyzers
//	-json                emit go vet's JSON diagnostic stream
//	-sarif <file>        also convert diagnostics to SARIF 2.1.0 at <file>
//	-list-suppressions   print every //lint:allow site under the current
//	                     module and exit
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"ensdropcatch/internal/lint"
)

func main() {
	args := os.Args[1:]
	if vetProtocol(args) {
		unitchecker.Main(lint.Analyzers()...) // does not return
	}
	os.Exit(run(args, os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("enslint", flag.ExitOnError)
	enable := fs.String("enable", "", "comma-separated analyzer names to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	jsonOut := fs.Bool("json", false, "emit the go vet JSON diagnostic stream")
	sarifPath := fs.String("sarif", "", "write diagnostics as SARIF 2.1.0 to this file")
	listSup := fs.Bool("list-suppressions", false, "print every //lint:allow site under the current module and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: enslint [flags] <packages>  (e.g. enslint ./...)")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)

	if *listSup {
		sups, err := findSuppressions(".")
		if err != nil {
			fmt.Fprintln(stderr, "enslint:", err)
			return 2
		}
		for _, s := range sups {
			fmt.Fprintf(stdout, "%s:%d: %s — %s\n", s.File, s.Line, s.Analyzer, s.Reason)
		}
		fmt.Fprintf(stdout, "%d suppressions\n", len(sups))
		return 0
	}

	pkgs := fs.Args()
	if len(pkgs) == 0 {
		fs.Usage()
		return 2
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "enslint:", err)
		return 2
	}
	vetArgs := []string{"vet", "-vettool=" + exe}
	wantJSON := *jsonOut || *sarifPath != ""
	if wantJSON {
		vetArgs = append(vetArgs, "-json")
	}
	for _, name := range splitList(*enable) {
		vetArgs = append(vetArgs, "-"+name)
	}
	for _, name := range splitList(*disable) {
		vetArgs = append(vetArgs, "-"+name+"=false")
	}
	vetArgs = append(vetArgs, pkgs...)

	cmd := exec.Command("go", vetArgs...)
	cmd.Stdout = stdout
	cmd.Stdin = os.Stdin
	var captured bytes.Buffer
	if wantJSON {
		// `go vet -json` writes the diagnostic stream to stderr (and
		// exits 0 regardless); tee it so it is both shown and parsable.
		cmd.Stderr = io.MultiWriter(&captured, stderr)
	} else {
		cmd.Stderr = stderr
	}
	runErr := cmd.Run()

	if wantJSON {
		diags := parseVetJSON(captured.Bytes())
		if *sarifPath != "" {
			if err := writeSARIF(*sarifPath, diags); err != nil {
				fmt.Fprintln(stderr, "enslint:", err)
				return 2
			}
		}
		// Recover the conventional exit status from the parsed stream.
		if runErr == nil && len(diags) > 0 {
			return 1
		}
	}
	if runErr != nil {
		if ee, ok := runErr.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(stderr, "enslint:", runErr)
		return 2
	}
	return 0
}

// vetProtocol reports whether the arguments look like the go vet
// unitchecker protocol (a *.cfg file per package, or -V=full / flag
// queries) rather than a package pattern typed by a human.
func vetProtocol(args []string) bool {
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") || strings.HasPrefix(a, "-V") || a == "-flags" {
			return true
		}
	}
	return false
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
