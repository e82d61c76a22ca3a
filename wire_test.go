package ensdropcatch

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/subgraph"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/crawl_wire.golden from this run")

// TestCrawlWireGolden pins the crawl's wire format: the method, path and
// query, body, Content-Type and X-Client-ID of every request the three
// clients send in a fixed-seed 200-domain crawl, sorted, must match the
// golden byte for byte. The benchmark's serve workloads replay exactly
// these requests, so a client refactor that changes one of them changes
// what the serve path is measured on. Etherscan's ClientID is left empty
// so the golden also pins that no X-Client-ID is sent then.
//
// Regenerate with: go test -run TestCrawlWireGolden -update-wire .
func TestCrawlWireGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full crawl")
	}
	res, cfg, store, labels := soakWorld(t, 200, 23)
	mux := http.NewServeMux()
	mux.Handle("/subgraph", subgraph.NewServer(store, nil))
	mux.Handle("/etherscan/", http.StripPrefix("/etherscan",
		etherscan.NewServer(res.Chain, labels)))
	mux.Handle("/opensea/", http.StripPrefix("/opensea", opensea.NewServer(res.OpenSea)))

	var mu sync.Mutex
	var lines []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		line := fmt.Sprintf("%s %s body=%q content-type=%q client-id=%q",
			r.Method, r.URL.RequestURI(), body, r.Header.Get("Content-Type"), r.Header.Get("X-Client-ID"))
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	sg := subgraph.NewClient(srv.URL + "/subgraph")
	es := etherscan.NewClient(srv.URL+"/etherscan", "wire")
	es.MinInterval = 0
	osc := opensea.NewClient(srv.URL + "/opensea")
	sg.ClientID, osc.ClientID = "wire", "wire"
	if _, err := dataset.Build(context.Background(), sg, es, osc,
		dataset.BuildOptions{Start: cfg.Start, End: cfg.End, TxWorkers: 4, MarketWorkers: 2}); err != nil {
		t.Fatal(err)
	}

	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "crawl_wire.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-wire)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(lines) != len(wantLines) {
		t.Errorf("crawl sent %d requests, golden has %d", len(lines), len(wantLines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Fatalf("first difference at sorted request %d:\n got  %s\n want %s", i, lines[i], wantLines[i])
		}
	}
}
