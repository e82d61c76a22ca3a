package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/vfs"
)

// binFile is the file Save writes inside a dataset directory: the
// versioned columnar snapshot described in binary.go and DESIGN.md, and
// the dataset's only on-disk encoding.
const binFile = "dataset.bin"

// Format names a dataset encoding. dataset.bin is the only one; the
// type, FormatBinary and WithFormat remain so callers written when there
// were two (the benchmark module's workloads) still compile.
type Format int

// FormatBinary is the versioned columnar snapshot (dataset.bin).
const FormatBinary Format = 0

// ErrCorrupt marks a persisted dataset that cannot be trusted: a file
// truncated mid-write, a section whose decoded rows disagree with the
// counts it declared, or any other framing damage. Load never silently
// drops rows — every such condition surfaces as an error wrapping
// ErrCorrupt.
var ErrCorrupt = errors.New("dataset: persisted dataset truncated or corrupt")

type saveConfig struct {
	fsync bool
	fs    vfs.FS
}

// SaveOption tunes Save and SaveSnapshot.
type SaveOption func(*saveConfig)

// WithFormat is a no-op: FormatBinary is the only encoding.
func WithFormat(Format) SaveOption {
	return func(*saveConfig) {}
}

// WithSync fsyncs the snapshot before the rename that commits it and its
// directory after, so the saved dataset survives power loss, not just
// process death.
func WithSync() SaveOption {
	return func(c *saveConfig) { c.fsync = true }
}

// WithFS routes all disk writes through fsys (default vfs.OS). Chaos
// tests pass a vfs.Faulty to exercise the crash-atomicity contract
// under injected disk faults.
func WithFS(fsys vfs.FS) SaveOption {
	return func(c *saveConfig) { c.fs = fsys }
}

// Save writes the dataset to dir/dataset.bin, creating dir if needed.
// The file is written to a temp name and renamed into place, so a crash
// mid-save leaves either the complete previous dataset or the complete
// new one.
func (ds *Dataset) Save(dir string, opts ...SaveOption) error {
	return ds.SaveSnapshot(filepath.Join(dir, binFile), opts...)
}

// SaveSnapshot writes the dataset as a single binary columnar snapshot
// file at path (atomically, via temp-and-rename). Load accepts the
// resulting file directly.
func (ds *Dataset) SaveSnapshot(path string, opts ...SaveOption) error {
	var cfg saveConfig
	for _, o := range opts {
		o(&cfg)
	}
	return ds.saveBinary(vfs.OrOS(cfg.fs), path, cfg.fsync)
}

// sortedDomains returns the domains in label-hash byte order — the total
// order every persisted layout shares.
func (ds *Dataset) sortedDomains() []*Domain {
	domains := make([]*Domain, 0, len(ds.Domains))
	for _, d := range ds.Domains {
		//lint:allow maporder sorted into a total order immediately below
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool {
		return bytes.Compare(domains[i].LabelHash[:], domains[j].LabelHash[:]) < 0
	})
	return domains
}

// txsToSave returns the rows Save writes, in (timestamp, hash) order,
// with their endpoint table and ids: the ones Reindex or Load left while
// they still describe Txs, else ones derived from a sorted copy, so a
// dataset edited since its last Reindex still saves as it now stands.
func (ds *Dataset) txsToSave() (txs []*Tx, addrs []ethtypes.Address, from, to []int32) {
	if ds.idsCurrent() {
		return ds.Txs, ds.addrs, ds.from, ds.to
	}
	txs = slices.Clone(ds.Txs)
	sortTxs(txs)
	addrs, from, to = endpointIDs(txs)
	return txs, addrs, from, to
}

// sortedSubdomains returns a copy of Subdomains stably sorted by node
// bytes (ties keep their deterministic collection order).
func (ds *Dataset) sortedSubdomains() []Subdomain {
	subs := append([]Subdomain(nil), ds.Subdomains...)
	sort.SliceStable(subs, func(i, j int) bool {
		return bytes.Compare(subs[i].Node[:], subs[j].Node[:]) < 0
	})
	return subs
}

// sortedMarket flattens the per-token event map into one slice under a
// total order — (timestamp, token, kind, price, seller, buyer) — so
// equal-timestamp rows cannot land in map-collection order, and the
// order does not depend on sort stability.
func (ds *Dataset) sortedMarket() []MarketEvent {
	var market []MarketEvent
	for _, evs := range ds.Market {
		//lint:allow maporder sorted into a total order immediately below
		market = append(market, evs...)
	}
	sort.Slice(market, func(i, j int) bool {
		a, b := &market[i], &market[j]
		if a.Timestamp != b.Timestamp {
			return a.Timestamp < b.Timestamp
		}
		if c := bytes.Compare(a.TokenID[:], b.TokenID[:]); c != 0 {
			return c < 0
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.PriceUSD != b.PriceUSD {
			return a.PriceUSD < b.PriceUSD
		}
		if a.Seller != b.Seller {
			return a.Seller < b.Seller
		}
		return a.Buyer < b.Buyer
	})
	return market
}

// sortedAddrs returns the keys of m in address byte order.
func sortedAddrs(m map[ethtypes.Address]bool) []ethtypes.Address {
	addrs := make([]ethtypes.Address, 0, len(m))
	for a := range m {
		//lint:allow maporder sorted into a total order immediately below
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	})
	return addrs
}

// Load reads a dataset previously written by Save or SaveSnapshot and
// reindexes it. path is either a snapshot file or a directory holding
// dataset.bin. Every section's decoded row count is checked against its
// declared count, so a file truncated at any byte makes Load fail with
// an error wrapping ErrCorrupt rather than return a silently shortened
// dataset.
func Load(path string) (*Dataset, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if fi.IsDir() {
		path = filepath.Join(path, binFile)
	}
	return loadBinaryFile(path)
}

// writeAtomic streams write's output to a same-directory temp file and
// renames it over path, so a crash mid-write leaves the previous file
// intact — readers never observe a half-written one. With sync, the file
// is fsynced before the rename and the directory after it. All disk
// traffic goes through
// fsys so chaos tests can inject write, sync, and rename faults; the
// named crash points bracket the commit rename, the seam the atomicity
// claim depends on.
func writeAtomic(fsys vfs.FS, path string, sync bool, write func(f vfs.File) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("dataset: create %s: %w", tmp, err)
	}
	werr := write(f)
	if werr == nil && sync {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = vfs.Hit(fsys, "dataset.writeAtomic.pre-rename")
	}
	if werr != nil {
		_ = fsys.Remove(tmp) // best-effort cleanup; werr is the failure being reported
		return fmt.Errorf("dataset: write %s: %w", path, werr)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp) // best-effort cleanup; the rename error is the failure being reported
		return fmt.Errorf("dataset: commit %s: %w", path, err)
	}
	if err := vfs.Hit(fsys, "dataset.writeAtomic.post-rename"); err != nil {
		// The rename is already durable-in-order; the crash lands after
		// the commit, so the caller sees the failure but the file is
		// whole.
		return fmt.Errorf("dataset: commit %s: %w", path, err)
	}
	if sync {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			return fmt.Errorf("dataset: sync dir %s: %w", filepath.Dir(path), err)
		}
	}
	return nil
}
