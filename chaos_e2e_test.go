package ensdropcatch

// End-to-end chaos drill: the full crawl pipeline against all three mock
// servers behind a seeded chaos campaign at a 20% fault rate, killed
// mid-crawl and resumed, must converge to a dataset byte-identical with a
// clean (fault-free) run. This is the capstone over the retry, breaker,
// and resume-spool machinery: faults may cost time, but never rows.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ensdropcatch/internal/chaos"
	"ensdropcatch/internal/chaos/plan"
	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/leakcheck"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

// killingSource cancels the crawl after a fixed number of TxList calls,
// simulating the process dying mid-crawl.
type killingSource struct {
	inner  dataset.TxSource
	calls  atomic.Int64
	killAt int64
	kill   context.CancelFunc
}

func (k *killingSource) TxList(ctx context.Context, addr ethtypes.Address) ([]etherscan.TxRecord, error) {
	if k.calls.Add(1) == k.killAt {
		k.kill()
	}
	return k.inner.TxList(ctx, addr)
}

func (k *killingSource) FetchLabels(ctx context.Context) (etherscan.Labels, error) {
	return k.inner.FetchLabels(ctx)
}

// cappedSleep keeps retry backoff and Retry-After waits short so the
// drill runs in seconds while still exercising the wait paths.
func cappedSleep(max time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		if d > max {
			d = max
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
}

func TestChaosCrawlConvergesToCleanDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline under fault injection")
	}
	leakcheck.Check(t)
	cfg := world.DefaultConfig(400)
	cfg.Seed = 23
	res, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := subgraph.BuildIndex(res.Chain)
	labels := dataset.LabelsFromWorld(res)

	// ensworld's mux without its per-key limit, so the only 429s in play
	// are the injected ones.
	newServer := func(faulty func(http.Handler) http.Handler) *httptest.Server {
		mux := http.NewServeMux()
		mux.Handle("/subgraph", faulty(subgraph.NewServer(store, nil)))
		mux.Handle("/etherscan/", http.StripPrefix("/etherscan",
			faulty(etherscan.NewServer(res.Chain, labels))))
		mux.Handle("/opensea/", http.StripPrefix("/opensea", faulty(opensea.NewServer(res.OpenSea))))
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}

	newClients := func(base string, hostile bool) (*subgraph.Client, *etherscan.Client, *opensea.Client) {
		sg := subgraph.NewClient(base + "/subgraph")
		es := etherscan.NewClient(base+"/etherscan", "chaos-e2e")
		es.MinInterval = 0
		os := opensea.NewClient(base + "/opensea")
		if hostile {
			sleep := cappedSleep(2 * time.Millisecond)
			sg.Sleep, es.Sleep, os.Sleep = sleep, sleep, sleep
			sg.MaxRetries, es.MaxRetries, os.MaxRetries = 12, 12, 12
			sg.Breaker = crawler.NewBreaker("subgraph-chaos", 10, 50*time.Millisecond)
			es.Breaker = crawler.NewBreaker("etherscan-chaos", 10, 50*time.Millisecond)
			os.Breaker = crawler.NewBreaker("opensea-chaos", 10, 50*time.Millisecond)
		}
		return sg, es, os
	}

	camp := chaos.NewCampaign(plan.Steady(0.2), chaos.Config{
		Seed:       42,
		RetryAfter: 10 * time.Millisecond,
		Delay:      2 * time.Millisecond,
	})
	hostile := newServer(camp.Wrap)
	sg, es, osc := newClients(hostile.URL, true)

	resumeDir := filepath.Join(t.TempDir(), "resume")
	opts := dataset.BuildOptions{
		Start: cfg.Start, End: cfg.End,
		TxWorkers: 4, ResumeDir: resumeDir,
	}

	// Run 1: killed after 60 crawled addresses.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &killingSource{inner: es, killAt: 60, kill: cancel}
	_, err = dataset.Build(ctx, sg, killer, osc, opts)
	if err == nil {
		t.Fatal("killed crawl reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Logf("killed crawl error (expected, via cancel): %v", err)
	}
	if killer.calls.Load() < killer.killAt {
		t.Fatalf("crawl died after only %d TxList calls, before the kill", killer.calls.Load())
	}

	// Run 2: resume under the same campaign; must complete.
	chaosDS, err := dataset.Build(context.Background(), sg, es, osc, opts)
	if err != nil {
		t.Fatalf("resumed chaos crawl: %v", err)
	}

	// Clean reference run: same world, no faults, fresh everything.
	clean := newServer(func(h http.Handler) http.Handler { return h })
	csg, ces, cos := newClients(clean.URL, false)
	cleanDS, err := dataset.Build(context.Background(), csg, ces, cos,
		dataset.BuildOptions{Start: cfg.Start, End: cfg.End, TxWorkers: 4})
	if err != nil {
		t.Fatalf("clean crawl: %v", err)
	}

	// Persist both and require byte-identical artifacts.
	chaosDir := filepath.Join(t.TempDir(), "chaos")
	cleanDir := filepath.Join(t.TempDir(), "clean")
	if err := chaosDS.Save(chaosDir); err != nil {
		t.Fatal(err)
	}
	if err := cleanDS.Save(cleanDir); err != nil {
		t.Fatal(err)
	}
	compareDirsByteIdentical(t, cleanDir, chaosDir)
}

// compareDirsByteIdentical fails unless want and got hold exactly the
// same relative file paths with exactly the same bytes.
func compareDirsByteIdentical(t *testing.T, want, got string) {
	t.Helper()
	list := func(root string) map[string][]byte {
		files := map[string][]byte{}
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[rel] = b
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	wantFiles, gotFiles := list(want), list(got)
	for rel, wb := range wantFiles {
		gb, ok := gotFiles[rel]
		if !ok {
			t.Errorf("missing file %s in chaos output", rel)
			continue
		}
		if string(wb) != string(gb) {
			i := 0
			for i < len(wb) && i < len(gb) && wb[i] == gb[i] {
				i++
			}
			lo, hi := i-40, i+40
			if lo < 0 {
				lo = 0
			}
			ctxOf := func(b []byte) string {
				h := hi
				if h > len(b) {
					h = len(b)
				}
				if lo >= h {
					return ""
				}
				return string(b[lo:h])
			}
			t.Errorf("%s differs at byte %d (%d vs %d bytes)\nclean: %q\nchaos: %q",
				rel, i, len(wb), len(gb), ctxOf(wb), ctxOf(gb))
		}
	}
	for rel := range gotFiles {
		if _, ok := wantFiles[rel]; !ok {
			t.Errorf("unexpected file %s in chaos output", rel)
		}
	}
}
