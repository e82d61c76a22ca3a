package dataset

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/dataset/codec"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/trace"
	"ensdropcatch/internal/vfs"
)

// The transaction crawl is by far the longest stage of assembly (the
// paper crawled 9.7M transactions under Etherscan's rate limit). This
// file adds resumability: per-address results stream to an append-only
// JSONL spool and a checkpoint records completed addresses, so an
// interrupted crawl restarts where it stopped instead of re-paying hours
// of rate-limited requests.
//
// Crash-consistency contract: an address's result is spooled first and
// checkpointed second, so a crash between the two re-crawls the address
// (safe) and never loses data. The converse also holds on recovery: a
// torn *final* spool line — the footprint of dying mid-write — is only
// tolerable while its address is absent from the checkpoint; a corrupt
// line for a checkpointed address (or any corrupt non-final line) means
// data that was promised durable is gone, which is a hard error.

// A spool snapshot (txspool.snap) accelerates that recovery: it holds
// every transaction absorbed so far in binary columnar form plus the
// spool byte offset those entries cover, so resume loads one file and
// replays only the spool tail instead of re-parsing gigabytes of JSONL.
// The spool stays the source of truth — a missing, torn, or stale
// snapshot is never an error, just a slower resume.

const (
	spoolFile      = "txspool.jsonl"
	spoolSnapFile  = "txspool.snap"
	checkpointFile = "txcrawl.checkpoint"
)

var (
	snapMagic  = []byte("ENSSNP1\n")
	snapFooter = []byte("ENSSEND\n")
)

// ErrSpoolCorrupt marks spool damage that resume cannot safely repair.
var ErrSpoolCorrupt = errors.New("dataset: corrupt spool")

// spoolEntry is one spooled per-address result.
type spoolEntry struct {
	Address string `json:"address"`
	Txs     []*Tx  `json:"txs"`
}

// crawlTxsResumable crawls transaction lists for addrs with concurrency
// workers, spooling results under dir. Completed addresses recorded in
// the checkpoint are skipped and their transactions recovered from the
// spool. onAddressDone is invoked once per covered address — including
// addresses recovered from the checkpoint — so progress reporting sees
// the full total. fsync additionally syncs the spool and checkpoint to
// disk at every completed address. snapEvery > 0 writes a spool
// snapshot every that many completed addresses (and once at the end),
// so the next resume replays only the spool tail.
func crawlTxsResumable(ctx context.Context, dir string, txs TxSource, addrs []ethtypes.Address, workers int, ds *Dataset, onAddressDone func(), fsync bool, snapEvery int, fsys vfs.FS) error {
	if onAddressDone == nil {
		onAddressDone = func() {}
	}
	fsys = vfs.OrOS(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: resume dir: %w", err)
	}
	cpOpts := []crawler.CheckpointOption{crawler.WithFS(fsys)}
	if fsync {
		cpOpts = append(cpOpts, crawler.WithSync())
	}
	cp, err := crawler.OpenCheckpoint(filepath.Join(dir, checkpointFile), cpOpts...)
	if err != nil {
		return err
	}
	defer cp.Close()

	seen := map[ethtypes.Hash]bool{}
	for _, tx := range ds.Txs {
		seen[tx.Hash] = true
	}
	var mu sync.Mutex
	absorb := func(rows []*Tx) {
		for _, tx := range rows {
			if !seen[tx.Hash] {
				seen[tx.Hash] = true
				ds.Txs = append(ds.Txs, tx)
			}
		}
	}

	spoolPath := filepath.Join(dir, spoolFile)
	snapPath := filepath.Join(dir, spoolSnapFile)

	// Fast resume: a valid snapshot pre-loads everything the spool held
	// up to its covered offset, and recovery replays only the tail. Any
	// snapshot anomaly — torn file, bad framing, offset past the spool —
	// discards the snapshot and falls back to a full re-parse: the
	// snapshot is a cache, the spool is the record.
	var startOffset int64
	snapTxs, covered, snapErr := loadSpoolSnapshot(snapPath)
	if snapErr == nil {
		if fi, err := os.Stat(spoolPath); err == nil && covered <= fi.Size() {
			absorb(snapTxs)
			startOffset = covered
			pm().snapshotRestores.Inc()
		} else {
			discardSpoolSnapshot(snapPath)
		}
	} else if !os.IsNotExist(snapErr) {
		discardSpoolSnapshot(snapPath)
	}

	if err := recoverSpool(spoolPath, startOffset, cp, absorb); err != nil {
		return err
	}

	spool, err := fsys.OpenFile(spoolPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("dataset: append spool: %w", err)
	}
	defer spool.Close()
	if fsync {
		// The spool and checkpoint may have just been created: fsync the
		// containing directory so the *names* survive power loss too —
		// fsyncing file contents alone does not make a fresh directory
		// entry durable.
		if err := fsys.SyncDir(dir); err != nil {
			return fmt.Errorf("dataset: sync resume dir: %w", err)
		}
	}
	spoolEnc := json.NewEncoder(spool)

	// writeSnap persists the current absorbed state (mu must be held).
	// Snapshot failures never fail the crawl — the next resume simply
	// re-parses the spool.
	writeSnap := func() {
		fi, err := spool.Stat()
		if err != nil {
			return
		}
		if writeSpoolSnapshot(fsys, snapPath, ds.Txs, fi.Size(), fsync) != nil {
			return
		}
		pm().snapshotWrites.Inc()
	}
	sinceSnap := 0

	// Only crawl what is not checkpointed; recovered addresses count as
	// done immediately.
	var todo []ethtypes.Address
	for _, a := range addrs {
		if !cp.Done(strings0x(a)) {
			todo = append(todo, a)
		} else {
			onAddressDone()
		}
	}
	sort.Slice(todo, func(i, j int) bool { return lessAddr(todo[i], todo[j]) })

	err = crawler.ForEach(ctx, workers, todo, func(ctx context.Context, addr ethtypes.Address) error {
		// One span per crawled address, as in the non-resumable path.
		ctx, sp := trace.Start(ctx, "crawl.address")
		if sp != nil {
			sp.Annotate("address", addr.Hex())
		}
		records, err := txs.TxList(ctx, addr)
		sp.EndErr(err)
		if err != nil {
			return fmt.Errorf("txlist %s: %w", addr, err)
		}
		rows := make([]*Tx, 0, len(records))
		for i := range records {
			tx, err := fromRecord(&records[i])
			if err != nil {
				return err
			}
			rows = append(rows, tx)
		}
		mu.Lock()
		defer mu.Unlock()
		// Spool first, then checkpoint: a crash between the two re-crawls
		// the address (safe), never loses data.
		if err := spoolEnc.Encode(spoolEntry{Address: strings0x(addr), Txs: rows}); err != nil {
			return fmt.Errorf("spool %s: %w", addr, err)
		}
		if fsync {
			if err := spool.Sync(); err != nil {
				return fmt.Errorf("sync spool %s: %w", addr, err)
			}
		}
		// The crash-consistency contract's critical window: the entry is
		// spooled but not yet checkpointed. A crash here re-crawls the
		// address — chaos tests park a crash point on this seam to prove
		// it.
		if err := vfs.Hit(fsys, "dataset.spool.pre-mark"); err != nil {
			return fmt.Errorf("spool %s: %w", addr, err)
		}
		if err := cp.Mark(strings0x(addr)); err != nil {
			return err
		}
		absorb(rows)
		onAddressDone()
		if snapEvery > 0 {
			sinceSnap++
			if sinceSnap >= snapEvery {
				sinceSnap = 0
				writeSnap()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A final snapshot makes the next resume of a finished (or cleanly
	// stopped) crawl a single read with an empty tail.
	if snapEvery > 0 && len(todo) > 0 {
		mu.Lock()
		writeSnap()
		mu.Unlock()
	}
	return nil
}

// writeSpoolSnapshot atomically persists the transactions absorbed so
// far plus the spool byte offset they cover. The offset is always a
// line boundary: snapshots are written under the same lock as spool
// appends, after complete entries only.
func writeSpoolSnapshot(fsys vfs.FS, path string, txs []*Tx, covered int64, sync bool) error {
	sorted := append([]*Tx(nil), txs...)
	sortTxsForSave(sorted)
	return writeAtomic(fsys, path, sync, func(f vfs.File) error {
		w := codec.NewWriter(f)
		w.Raw(snapMagic)
		w.U16(binVersion)
		w.U64(uint64(covered))
		w.U64(uint64(len(sorted)))
		encodeTxColumns(w, sorted)
		w.Raw(snapFooter)
		return w.Flush()
	})
}

// loadSpoolSnapshot reads a spool snapshot. It is strict — any framing,
// count, or decode anomaly (including truncation at any byte) is an
// error — because the caller's response is to discard the snapshot and
// re-parse the spool, never to trust a damaged cache.
func loadSpoolSnapshot(path string) ([]*Tx, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err // not-exist must stay recognizable to the caller
	}
	r := codec.NewReader(data)
	if magic := r.Raw(len(snapMagic)); r.Err() != nil || !bytes.Equal(magic, snapMagic) {
		return nil, 0, fmt.Errorf("%w: bad spool snapshot magic", ErrCorrupt)
	}
	v := r.U16()
	covered := r.U64()
	rows := r.U64()
	if r.Err() != nil {
		return nil, 0, fmt.Errorf("%w: truncated spool snapshot header", ErrCorrupt)
	}
	if v != binVersion {
		return nil, 0, fmt.Errorf("dataset: spool snapshot version %d not supported (want %d)", v, binVersion)
	}
	if covered > math.MaxInt64 {
		return nil, 0, fmt.Errorf("%w: spool snapshot offset %d out of range", ErrCorrupt, covered)
	}
	if rows > uint64(r.Remaining()) {
		return nil, 0, fmt.Errorf("%w: spool snapshot declares %d rows in %d bytes", ErrCorrupt, rows, r.Remaining())
	}
	txs, err := decodeTxColumns(r, int(rows))
	if err != nil {
		return nil, 0, err
	}
	if footer := r.Raw(len(snapFooter)); r.Err() != nil || !bytes.Equal(footer, snapFooter) {
		return nil, 0, fmt.Errorf("%w: bad spool snapshot footer", ErrCorrupt)
	}
	if n := r.Remaining(); n != 0 {
		return nil, 0, fmt.Errorf("%w: %d bytes after spool snapshot footer", ErrCorrupt, n)
	}
	out := make([]*Tx, len(txs))
	for i := range txs {
		out[i] = &txs[i]
	}
	return out, int64(covered), nil
}

// discardSpoolSnapshot drops an unusable snapshot so it cannot mislead
// the next resume either.
func discardSpoolSnapshot(path string) {
	pm().snapshotFallbacks.Inc()
	_ = os.Remove(path) // best-effort: a lingering bad snapshot is re-discarded next resume
}

// recoverSpool replays the spool at path from startOffset (a line
// boundary — 0, or the offset a snapshot already covers), absorbing
// entries whose address the checkpoint confirms complete. A torn or
// unparseable
// *final* line whose address is not checkpointed is the footprint of a
// crash mid-write: the line is truncated away (so appends start on a
// clean boundary) and its address will simply be re-crawled. Corruption
// anywhere else — a bad non-final line, or a bad final line for an
// address the checkpoint claims durable — is unrecoverable data loss
// and fails with ErrSpoolCorrupt.
func recoverSpool(path string, startOffset int64, cp *crawler.Checkpoint, absorb func([]*Tx)) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("dataset: open spool: %w", err)
	}
	defer f.Close()

	if startOffset > 0 {
		if _, err := f.Seek(startOffset, io.SeekStart); err != nil {
			return fmt.Errorf("dataset: seek spool: %w", err)
		}
	}
	r := bufio.NewReaderSize(f, 1<<20)
	offset := startOffset // start of the line being read
	var bad []byte        // first undecodable line seen
	badOffset := int64(-1)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			if bad != nil {
				// The damage was not on the final line: entries written
				// after it prove this is not a mid-write crash tail.
				return fmt.Errorf("%w: undecodable entry at byte %d followed by more data", ErrSpoolCorrupt, badOffset)
			}
			lineStart := offset
			offset += int64(len(line))
			trimmed := bytes.TrimRight(line, "\n")
			if len(trimmed) == 0 {
				continue
			}
			var entry spoolEntry
			// A line missing its trailing newline is torn even if its
			// prefix happens to decode: the crash landed mid-write, and
			// appending to it would corrupt the next entry too.
			if json.Unmarshal(trimmed, &entry) != nil || err != nil {
				bad = trimmed
				badOffset = lineStart
				continue
			}
			if cp.Done(entry.Address) {
				absorb(entry.Txs)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("dataset: read spool: %w", err)
		}
	}
	if bad == nil {
		return nil
	}
	if addr := partialSpoolAddress(bad); addr != "" && cp.Done(addr) {
		return fmt.Errorf("%w: checkpointed entry for %s is undecodable", ErrSpoolCorrupt, addr)
	}
	// Drop the torn tail so the next append starts on a line boundary.
	if err := os.Truncate(path, badOffset); err != nil {
		return fmt.Errorf("dataset: truncate torn spool tail: %w", err)
	}
	pm().spoolRecoveries.Inc()
	return nil
}

// partialSpoolAddress pulls the address field out of a possibly
// truncated spool line. The encoder always writes address first, so any
// tear long enough to matter still yields it; an empty result means the
// tear landed inside the address itself.
func partialSpoolAddress(line []byte) string {
	const key = `"address":"`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return ""
	}
	rest := line[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

func strings0x(a ethtypes.Address) string {
	text, _ := a.MarshalText()
	return string(text)
}
