package dataset

import (
	"context"
	"errors"
	"sync"
	"testing"

	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/vfs"
	"ensdropcatch/internal/world"
)

// Disk-fault acceptance suite: every injected filesystem fault either
// surfaces as a typed error or is healed by resume — never silent
// corruption.

// grow returns a copy-ish second generation with one more transaction,
// so the two generations have different fingerprints.
func grow(t *testing.T, ds *Dataset) *Dataset {
	t.Helper()
	extra := *ds.Txs[0]
	for i := range extra.Hash {
		extra.Hash[i] ^= 0xff
	}
	ds.Txs = append(ds.Txs, &extra)
	ds.Reindex()
	return ds
}

// A rename fault during Save surfaces typed and leaves the previous
// generation loadable and intact.
func TestSaveRenameFaultPreservesPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	gen1 := tinyDataset(t)
	if err := gen1.Save(dir); err != nil {
		t.Fatal(err)
	}
	want := mustLoad(t, dir).Fingerprint()

	gen2 := grow(t, tinyDataset(t))
	fsys := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 5, RenameErrRate: 1})
	err := gen2.Save(dir, WithFS(fsys))
	if !errors.Is(err, vfs.ErrRenameFailed) {
		t.Fatalf("save error = %v, want ErrRenameFailed", err)
	}
	if got := mustLoad(t, dir).Fingerprint(); got != want {
		t.Fatal("previous generation damaged by failed save")
	}
}

// An ENOSPC write fault during Save surfaces typed (down to the real
// errno) and never commits the half-written temp file.
func TestSaveWriteFaultSurfacesTyped(t *testing.T) {
	dir := t.TempDir()
	gen1 := tinyDataset(t)
	if err := gen1.Save(dir); err != nil {
		t.Fatal(err)
	}
	want := mustLoad(t, dir).Fingerprint()

	for _, cfg := range []vfs.FaultConfig{
		{Seed: 9, WriteErrRate: 1},
		{Seed: 9, ShortWriteRate: 1},
	} {
		gen2 := grow(t, tinyDataset(t))
		err := gen2.Save(dir, WithFS(vfs.NewFaulty(nil, cfg)))
		if !errors.Is(err, vfs.ErrDiskFull) {
			t.Fatalf("save error = %v, want ErrDiskFull", err)
		}
		if got := mustLoad(t, dir).Fingerprint(); got != want {
			t.Fatal("previous generation damaged by failed save")
		}
	}
}

// A crash before the commit rename leaves the previous generation fully
// intact.
func TestSaveCrashBeforeFirstRenameLeavesOldDataset(t *testing.T) {
	dir := t.TempDir()
	if err := tinyDataset(t).Save(dir); err != nil {
		t.Fatal(err)
	}
	want := mustLoad(t, dir).Fingerprint()
	gen2 := grow(t, tinyDataset(t))
	fsys := vfs.NewFaulty(nil, vfs.FaultConfig{CrashAfter: map[string]int{"dataset.writeAtomic.pre-rename": 1}})
	if err := gen2.Save(dir, WithFS(fsys)); !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("save error = %v, want ErrCrashed", err)
	}
	if got := mustLoad(t, dir).Fingerprint(); got != want {
		t.Fatal("previous generation damaged by crashed save")
	}
}

func mustLoad(t *testing.T, dir string) *Dataset {
	t.Helper()
	ds, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// buildWorld generates a small deterministic world plus the sources a
// resumable build needs.
func buildWorld(t *testing.T, domains int) (*StoreSource, *ChainSource, *MarketEventsSource, BuildOptions) {
	t.Helper()
	res, err := world.Generate(world.DefaultConfig(domains))
	if err != nil {
		t.Fatal(err)
	}
	store := subgraph.BuildIndex(res.Chain)
	chainSrc := &ChainSource{Chain: res.Chain, Labels: LabelsFromWorld(res)}
	market := NewMarketEventsSource(res.OpenSea)
	opts := BuildOptions{Start: res.Config.Start, End: res.Config.End, TxWorkers: 1}
	return &StoreSource{Store: store}, chainSrc, market, opts
}

// A short write tears the spool's final record mid-crawl; the next
// resume truncates the torn tail and re-crawls the lost address — the
// "healed by resume" half of the disk-fault contract.
func TestResumableCrawlHealsTornSpoolWrite(t *testing.T) {
	store, chainSrc, market, opts := buildWorld(t, 120)
	dir := t.TempDir()
	opts.ResumeDir = dir

	opts.FS = vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 2, ShortWriteRate: 1})
	_, err := Build(context.Background(), store, chainSrc, market, opts)
	if !errors.Is(err, vfs.ErrDiskFull) {
		t.Fatalf("faulted build error = %v, want ErrDiskFull", err)
	}

	// "Reboot": same directory, healthy disk.
	opts.FS = nil
	ds, err := Build(context.Background(), store, chainSrc, market, opts)
	if err != nil {
		t.Fatalf("resume after torn write: %v", err)
	}

	fresh := opts
	fresh.ResumeDir = ""
	want, err := Build(context.Background(), store, chainSrc, market, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Txs) != len(want.Txs) {
		t.Fatalf("healed crawl has %d txs, fresh crawl %d", len(ds.Txs), len(want.Txs))
	}
}

// A crash right after a record's append loses nothing and repeats
// nothing: the record that made it to disk proves its address done, so
// resume converges without crawling that address again.
func TestResumableCrawlHealsCrashAfterSpoolAppend(t *testing.T) {
	store, chainSrc, market, opts := buildWorld(t, 120)
	dir := t.TempDir()
	opts.ResumeDir = dir

	// TxWorkers is 1, so the 30th TxList call's address is the one
	// whose append the crash follows.
	first := &recordingSource{inner: chainSrc}
	opts.FS = vfs.NewFaulty(nil, vfs.FaultConfig{CrashAfter: map[string]int{"dataset.spool.post-append": 30}})
	_, err := Build(context.Background(), store, first, market, opts)
	if !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("crashed build error = %v, want ErrCrashed", err)
	}
	if len(first.addrs) != 30 {
		t.Fatalf("crawl made %d TxList calls before the crash, want 30", len(first.addrs))
	}

	opts.FS = nil
	second := &recordingSource{inner: chainSrc}
	ds, err := Build(context.Background(), store, second, market, opts)
	if err != nil {
		t.Fatalf("resume after crash: %v", err)
	}
	for _, a := range second.addrs {
		for _, b := range first.addrs {
			if a == b {
				t.Fatalf("resume re-crawled %s, whose record was appended before the crash", a)
			}
		}
	}
	fresh := opts
	fresh.ResumeDir = ""
	want, err := Build(context.Background(), store, chainSrc, market, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Txs) != len(want.Txs) {
		t.Fatalf("healed crawl has %d txs, fresh crawl %d", len(ds.Txs), len(want.Txs))
	}
}

// recordingSource records the addresses TxList is asked for.
type recordingSource struct {
	inner TxSource
	mu    sync.Mutex
	addrs []ethtypes.Address
}

func (r *recordingSource) TxList(ctx context.Context, addr ethtypes.Address) ([]etherscan.TxRecord, error) {
	r.mu.Lock()
	r.addrs = append(r.addrs, addr)
	r.mu.Unlock()
	return r.inner.TxList(ctx, addr)
}

func (r *recordingSource) FetchLabels(ctx context.Context) (etherscan.Labels, error) {
	return r.inner.FetchLabels(ctx)
}

// Fsync faults under FsyncCheckpoint surface typed instead of silently
// skipping durability.
func TestResumableCrawlSyncFaultSurfacesTyped(t *testing.T) {
	store, chainSrc, market, opts := buildWorld(t, 60)
	opts.ResumeDir = t.TempDir()
	opts.FsyncCheckpoint = true
	opts.FS = vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 4, SyncErrRate: 1})
	_, err := Build(context.Background(), store, chainSrc, market, opts)
	if !errors.Is(err, vfs.ErrSyncFailed) {
		t.Fatalf("build error = %v, want ErrSyncFailed", err)
	}
}
