package dataset

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

// flakySource wraps a TxSource and fails after a fixed number of TxList
// calls, simulating a crawl interrupted mid-way.
type flakySource struct {
	inner     TxSource
	calls     atomic.Int64
	failAfter int64
}

var errInjected = errors.New("injected crawl failure")

func (f *flakySource) TxList(ctx context.Context, addr ethtypes.Address) ([]etherscan.TxRecord, error) {
	if f.calls.Add(1) > f.failAfter {
		return nil, errInjected
	}
	return f.inner.TxList(ctx, addr)
}

func (f *flakySource) FetchLabels(ctx context.Context) (etherscan.Labels, error) {
	return f.inner.FetchLabels(ctx)
}

func TestResumableCrawlRecoversFromFailure(t *testing.T) {
	res, err := world.Generate(world.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	store := subgraph.BuildIndex(res.Chain)
	chainSrc := &ChainSource{Chain: res.Chain, Labels: LabelsFromWorld(res)}
	market := NewMarketEventsSource(res.OpenSea)
	dir := t.TempDir()

	// First attempt: dies after 120 addresses.
	flaky := &flakySource{inner: chainSrc, failAfter: 120}
	_, err = Build(context.Background(),
		&StoreSource{Store: store}, flaky, market,
		BuildOptions{Start: res.Config.Start, End: res.Config.End, TxWorkers: 4, ResumeDir: dir})
	if !errors.Is(err, errInjected) {
		t.Fatalf("first build err = %v, want injected failure", err)
	}

	// Second attempt resumes and completes; the source only sees the
	// remaining addresses.
	counting := &flakySource{inner: chainSrc, failAfter: 1 << 60}
	ds, err := Build(context.Background(),
		&StoreSource{Store: store}, counting, market,
		BuildOptions{Start: res.Config.Start, End: res.Config.End, TxWorkers: 4, ResumeDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth: a fresh non-resumable build.
	want, err := Build(context.Background(),
		&StoreSource{Store: store}, chainSrc, market,
		BuildOptions{Start: res.Config.Start, End: res.Config.End, TxWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Txs) != len(want.Txs) {
		t.Errorf("resumed crawl has %d txs, fresh crawl %d", len(ds.Txs), len(want.Txs))
	}
	// The resumed run must have skipped already-spooled addresses.
	addrSet := map[ethtypes.Address]bool{}
	for _, d := range ds.Domains {
		for _, e := range d.Events {
			if !e.Registrant.IsZero() {
				addrSet[e.Registrant] = true
			}
		}
	}
	if got := counting.calls.Load(); got >= int64(len(addrSet)) {
		t.Errorf("resume re-crawled everything: %d calls for %d addresses", got, len(addrSet))
	}
}

func TestResumableCrawlIdempotentWhenComplete(t *testing.T) {
	res, err := world.Generate(world.DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	store := subgraph.BuildIndex(res.Chain)
	chainSrc := &ChainSource{Chain: res.Chain, Labels: LabelsFromWorld(res)}
	market := NewMarketEventsSource(res.OpenSea)
	dir := t.TempDir()
	opts := BuildOptions{Start: res.Config.Start, End: res.Config.End, TxWorkers: 4, ResumeDir: dir}

	first, err := Build(context.Background(), &StoreSource{Store: store}, chainSrc, market, opts)
	if err != nil {
		t.Fatal(err)
	}
	counting := &flakySource{inner: chainSrc, failAfter: 1 << 60}
	second, err := Build(context.Background(), &StoreSource{Store: store}, counting, market, opts)
	if err != nil {
		t.Fatal(err)
	}
	if counting.calls.Load() != 0 {
		t.Errorf("complete spool still crawled %d addresses", counting.calls.Load())
	}
	if len(first.Txs) != len(second.Txs) {
		t.Errorf("tx counts differ: %d vs %d", len(first.Txs), len(second.Txs))
	}
}
