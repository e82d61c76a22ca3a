package dataset

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/vfs"
	"ensdropcatch/internal/world"
)

// tinyDataset hand-builds a dataset small enough that exhaustive
// every-byte truncation sweeps over its persisted form stay fast, while
// still populating every section and every field class (empty labels,
// failed txs, equal timestamps, multi-event tokens, both custodial sets).
func tinyDataset(t *testing.T) *Dataset {
	t.Helper()
	mkHash := func(b byte) (h ethtypes.Hash) {
		for i := range h {
			h[i] = b
		}
		return h
	}
	mkAddr := func(b byte) (a ethtypes.Address) {
		for i := range a {
			a[i] = b
		}
		return a
	}

	ds := New(1_600_000_000, 1_700_000_000)
	d1 := &Domain{LabelHash: mkHash(0x11), Label: "gold", Events: []Event{
		{Type: EvRegistered, Registrant: mkAddr(0xa1), Expiry: 1_650_000_000,
			CostWei: "5000000000000000000", PremiumWei: "0", Timestamp: 1_610_000_000,
			Block: 100, TxHash: mkHash(0xf1)},
		{Type: EvRenewed, Registrant: mkAddr(0xa1), Expiry: 1_680_000_000,
			CostWei: "1000000000000000000", Timestamp: 1_620_000_000, Block: 200, TxHash: mkHash(0xf2)},
	}}
	d2 := &Domain{LabelHash: mkHash(0x22), Events: []Event{ // unrecoverable label
		{Type: EvTransferred, Timestamp: 1_615_000_000, Block: 150, TxHash: mkHash(0xf3)},
	}}
	ds.Domains[d1.LabelHash] = d1
	ds.Domains[d2.LabelHash] = d2

	ds.Txs = []*Tx{
		{Hash: mkHash(0x31), Block: 100, Timestamp: 1_610_000_000, From: mkAddr(0xa1),
			To: mkAddr(0xb1), ValueWei: "5000000000000000000", Method: "register"},
		{Hash: mkHash(0x32), Block: 101, Timestamp: 1_610_000_000, From: mkAddr(0xa2),
			To: mkAddr(0xb1), ValueWei: "0", Failed: true, Method: "register"},
		{Hash: mkHash(0x33), Block: 300, Timestamp: 1_630_000_000, From: mkAddr(0xa1),
			To: mkAddr(0xa2), ValueWei: "123", Method: ""},
	}
	ds.Subdomains = []Subdomain{
		{Node: mkHash(0x41), Parent: d1.LabelHash, Name: "pay.gold.eth", Owner: "0xowner1", Created: 1_611_000_000},
		{Node: mkHash(0x42), Parent: d1.LabelHash, Owner: "0xowner2", Created: 1_612_000_000},
	}
	tok := mkHash(0x51)
	ds.Market[tok] = []MarketEvent{
		{Kind: MarketListing, TokenID: tok, Seller: "alice", PriceUSD: 100.5, Timestamp: 1_640_000_000},
		{Kind: MarketSale, TokenID: tok, Seller: "alice", Buyer: "bob", PriceUSD: 99, Timestamp: 1_640_000_000},
	}
	ds.Coinbase[mkAddr(0xc1)] = true
	ds.OtherCustodial[mkAddr(0xc2)] = true
	ds.OtherCustodial[mkAddr(0xc3)] = true
	ds.Reindex()
	return ds
}

// SaveSnapshot round-trips through a single file path.
func TestSaveSnapshotRoundTrip(t *testing.T) {
	ds := tinyDataset(t)
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := ds.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != ds.Fingerprint() {
		t.Fatal("snapshot fingerprint diverges from the saved dataset")
	}
	// Save(dir) writes the same bytes under dir/dataset.bin.
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, path), mustRead(t, filepath.Join(dir, binFile))) {
		t.Fatal("Save(dir) and SaveSnapshot(path) wrote different bytes")
	}
}

// A directory without dataset.bin fails to load with an error naming
// the missing file.
func TestLoadDirWithoutDatasetBinNamesIt(t *testing.T) {
	dir := t.TempDir()
	_, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, binFile)) {
		t.Fatalf("err = %v, want one naming %s", err, filepath.Join(dir, binFile))
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// save→load→save must be byte-stable: loading and re-saving an
// already-canonical dataset reproduces dataset.bin exactly, and nothing
// else lands in the directory.
func TestSaveLoadSaveIsByteStable(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		ds := sharedDataset(t)
		dir1, dir2 := t.TempDir(), t.TempDir()
		if err := ds.Save(dir1); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(dir1)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.Save(dir2); err != nil {
			t.Fatal(err)
		}
		if names := dirFileNames(t, dir1); len(names) != 1 || names[0] != binFile {
			t.Fatalf("saved files = %v, want only %s", names, binFile)
		}
		if !bytes.Equal(mustRead(t, filepath.Join(dir1, binFile)), mustRead(t, filepath.Join(dir2, binFile))) {
			t.Errorf("%s not byte-stable across save→load→save", binFile)
		}
	})
}

func dirFileNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// The binary contract from the spool tests, applied to the dataset
// snapshot: truncating the file at EVERY byte must fail Load — never
// silently shorten. The tiny dataset keeps the sweep exhaustive.
func TestBinaryTruncatedAtEveryByteFailsLoad(t *testing.T) {
	ds := tinyDataset(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.snap")
	if err := ds.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("untruncated snapshot failed to load: %v", err)
	}
	t.Logf("sweeping %d truncation points", len(full))
	cutPath := filepath.Join(dir, "cut.snap")
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(cutPath)
		if err == nil {
			t.Fatalf("cut at byte %d of %d loaded without error", cut, len(full))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at byte %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// The same contract sampled across a real-sized (900-domain world)
// binary file, striding with a prime so cuts land in every section and
// alignment class.
func TestBinaryTruncationStrideOnWorldDataset(t *testing.T) {
	ds := sharedDataset(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "world.snap")
	if err := ds.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, len(full) - 1, len(full) - len(binFooter), len(full) - len(binFooter) - 1}
	for cut := 7; cut < len(full); cut += 9973 {
		cuts = append(cuts, cut)
	}
	cutPath := filepath.Join(dir, "cut.snap")
	for _, cut := range cuts {
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(cutPath); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at byte %d of %d: err = %v, want ErrCorrupt", cut, len(full), err)
		}
	}
}

// writeAtomic must leave the previous file intact when the writer fails,
// and never leave temp files behind on success.
func TestWriteAtomicPreservesOldContentOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	if err := os.WriteFile(path, []byte("previous generation"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder exploded")
	if err := writeAtomic(vfs.OS, path, false, func(vfs.File) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's failure", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "previous generation" {
		t.Fatalf("old content clobbered: %q, %v", b, err)
	}
	if names := dirFileNames(t, dir); len(names) != 1 {
		t.Fatalf("temp files left behind: %v", names)
	}
}

// TestPersistAcceptanceAtScale reruns the core persistence contract —
// save→load→save byte-stable, loaded fingerprint equal to the saved
// dataset's — over a world of ENSPERSIST_DOMAINS domains. Skipped
// unless that variable is set: at the 100k acceptance scale this is a
// multi-minute run, driven explicitly (see Makefile bench-persist notes)
// rather than on every `go test`.
func TestPersistAcceptanceAtScale(t *testing.T) {
	n, err := strconv.Atoi(os.Getenv("ENSPERSIST_DOMAINS"))
	if err != nil || n <= 0 {
		t.Skip("set ENSPERSIST_DOMAINS (e.g. 100000) to run the at-scale acceptance check")
	}
	res, err := world.Generate(world.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromWorld(context.Background(), res, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	binDir, binDir2 := t.TempDir(), t.TempDir()
	if err := ds.Save(binDir); err != nil {
		t.Fatal(err)
	}
	fromBin, err := Load(binDir)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := ds.Fingerprint(), fromBin.Fingerprint(); want != got {
		t.Fatalf("fingerprints diverge at %d domains: saved %x, loaded %x", n, want, got)
	}
	if err := fromBin.Save(binDir2); err != nil {
		t.Fatal(err)
	}
	b1 := mustRead(t, filepath.Join(binDir, binFile))
	if !bytes.Equal(b1, mustRead(t, filepath.Join(binDir2, binFile))) {
		t.Fatalf("binary save→load→save not byte-stable at %d domains", n)
	}
	t.Logf("%d domains: %d txs, dataset.bin %d bytes, byte-stable, fingerprints equal", n, len(ds.Txs), len(b1))
}

// Save with WithSync leaves only the committed file — no .tmp residue —
// and the result loads.
func TestSaveLeavesNoTempFiles(t *testing.T) {
	ds := tinyDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir, WithSync()); err != nil {
		t.Fatal(err)
	}
	for _, name := range dirFileNames(t, dir) {
		if strings.HasSuffix(name, ".tmp") {
			t.Errorf("temp file %s left behind", name)
		}
	}
	if _, err := Load(dir); err != nil {
		t.Fatalf("synced save failed to load: %v", err)
	}
}

// Each tx column fault the v2 decoder checks is refused as corruption,
// and a snapshot otherwise intact still loads.
func TestLoadRefusesHostileTxSections(t *testing.T) {
	full := snapshotBytes(t, edgeFixture(t))
	if _, err := loadSnapshot(full); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
	for _, c := range hostileTxSections(t) {
		if _, err := loadSnapshot(withTxSection(full, c)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
}

// Version 2 changed the tx column encoding both files share, so a
// version 1 snapshot and a version 1 spool are refused with a version
// error, not read and not reported as corruption.
func TestVersionOneRefused(t *testing.T) {
	snap := snapshotBytes(t, tinyDataset(t))
	binary.LittleEndian.PutUint16(snap[len(binMagic):], 1)
	path := filepath.Join(t.TempDir(), binFile)
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "snapshot version 1 not supported") {
		t.Errorf("v1 snapshot: err = %v, want a version error", err)
	}
	spool := binary.LittleEndian.AppendUint16(bytes.Clone(spoolMagic), 1)
	if _, _, err := replaySpool(spool); err == nil || errors.Is(err, ErrSpoolCorrupt) || !strings.Contains(err.Error(), "spool version 1 not supported") {
		t.Errorf("v1 spool: err = %v, want a version error", err)
	}
}

// Save writes the endpoint ids the last Reindex derived only while they
// still describe Txs, so a dataset edited since saves and reloads to its
// own fingerprint.
func TestSaveAfterEditsKeepsFingerprint(t *testing.T) {
	stranger := ethtypes.DeriveAddress("edit-stranger")
	for _, tc := range []struct {
		name string
		edit func(ds *Dataset)
	}{
		{"sender outside the table", func(ds *Dataset) { ds.Txs[0].From = stranger }},
		{"recipient inside the table", func(ds *Dataset) { ds.Txs[0].To = ds.Txs[2].To }},
		{"row appended", func(ds *Dataset) {
			last := ds.Txs[len(ds.Txs)-1]
			ds.Txs = append(ds.Txs, &Tx{Hash: ethtypes.HashData([]byte("edit-late")), Timestamp: last.Timestamp + 1,
				From: last.To, To: stranger, ValueWei: "7"})
		}},
		{"row dropped", func(ds *Dataset) { ds.Txs = ds.Txs[1:] }},
		{"value changed", func(ds *Dataset) { ds.Txs[1].ValueWei = "42" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := tinyDataset(t)
			tc.edit(ds)
			want := ds.Fingerprint()
			path := filepath.Join(t.TempDir(), binFile)
			if err := ds.SaveSnapshot(path); err != nil {
				t.Fatal(err)
			}
			back, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := back.Fingerprint(); got != want {
				t.Fatalf("reloaded fingerprint %x, the edited dataset's is %x", got, want)
			}
			checkIndexesMatchScan(t, back)
		})
	}
}
