package dataset

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
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
// file makes it resumable: every finished address appends one
// checksummed record to the spool, txspool.bin, and a record that checks
// is itself the proof that its address is done. An interrupted crawl
// replays the spool and restarts where it stopped instead of re-paying
// hours of rate-limited requests.
//
// Layout (fixed widths little-endian):
//
//	magic "ENSSPL1\n" · version u16 (binVersion)
//	per address: length u32 · CRC-32C u32 · payload
//
// The payload is the 20-byte address, a uvarint row count, and the rows
// in dataset.bin's tx column encoding. The checksum covers the length
// field and the payload, so an all-zero record header never checks.
//
// Recovery contract: every record that checks is a finished address.
// The first record that does not check is a torn tail — the footprint of
// dying mid-append — when it runs to EOF or only zero bytes follow its
// declared end (a file extended but never written, as power loss can
// leave it). Resume truncates the spool at that record's start and
// re-crawls its address. Damage anywhere else means a finished address
// is gone while later ones survived, which no crash produces, so resume
// fails with ErrSpoolCorrupt.

const spoolFile = "txspool.bin"

// legacyResumeFiles are the resume state an older layout kept: a JSONL
// spool and a checkpoint of finished addresses. A directory holding
// either is refused, so an interrupted crawl is never silently
// restarted from zero.
var legacyResumeFiles = []string{"txspool.jsonl", "txcrawl.checkpoint"}

var spoolMagic = []byte("ENSSPL1\n")

const (
	spoolHeaderLen  = 8 + 2 // magic, version
	recordHeaderLen = 4 + 4 // length, checksum
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSpoolCorrupt marks spool damage that resume cannot safely repair.
var ErrSpoolCorrupt = errors.New("dataset: corrupt spool")

// spoolRecord is one record that checks: a finished address, its rows,
// and the byte span [off, end) it occupies in the spool.
type spoolRecord struct {
	addr     ethtypes.Address
	txs      []Tx
	off, end int
}

// refuseLegacyResume fails when dir holds resume state of the older
// layout, naming the file.
func refuseLegacyResume(dir string) error {
	for _, name := range legacyResumeFiles {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("dataset: %s is resume state of an older spool layout; finish that crawl with the release that started it, or remove the file to restart", path)
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("dataset: resume dir: %w", err)
		}
	}
	return nil
}

// crawlTxsResumable crawls transaction lists for addrs with concurrency
// workers, spooling one record per finished address under dir. Addresses
// with a record in the spool are skipped and their transactions
// recovered from it. onAddressDone is invoked once per covered address —
// including recovered ones — so progress reporting sees the full total.
// fsync additionally syncs the spool at every finished address.
func crawlTxsResumable(ctx context.Context, dir string, txs TxSource, addrs []ethtypes.Address, workers int, ds *Dataset, onAddressDone func(), fsync bool, fsys vfs.FS) error {
	if onAddressDone == nil {
		onAddressDone = func() {}
	}
	fsys = vfs.OrOS(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: resume dir: %w", err)
	}

	path := filepath.Join(dir, spoolFile)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dataset: read spool: %w", err)
	}
	recs, end, err := replaySpool(data)
	if err != nil {
		return fmt.Errorf("dataset: %s: %w", path, err)
	}
	if end < len(data) {
		// Drop the torn tail (or a header cut short) so the next append
		// starts on a record boundary.
		if err := os.Truncate(path, int64(end)); err != nil {
			return fmt.Errorf("dataset: truncate torn spool tail: %w", err)
		}
		pm().spoolRecoveries.Inc()
	}
	recovered := 0
	for _, rec := range recs {
		recovered += len(rec.txs)
	}
	seen := make(map[ethtypes.Hash]bool, len(ds.Txs)+recovered)
	for _, tx := range ds.Txs {
		seen[tx.Hash] = true
	}
	var mu sync.Mutex
	absorb := func(tx *Tx) {
		if !seen[tx.Hash] {
			seen[tx.Hash] = true
			ds.Txs = append(ds.Txs, tx)
		}
	}
	ds.Txs = slices.Grow(ds.Txs, recovered)
	done := make(map[ethtypes.Address]bool, len(recs))
	for _, rec := range recs {
		done[rec.addr] = true
		for i := range rec.txs {
			absorb(&rec.txs[i])
		}
	}

	spool, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("dataset: append spool: %w", err)
	}
	defer spool.Close()
	if fsync {
		// The spool may have just been created: fsync the containing
		// directory so its *name* survives power loss too — fsyncing file
		// contents alone does not make a fresh directory entry durable.
		if err := fsys.SyncDir(dir); err != nil {
			return fmt.Errorf("dataset: sync resume dir: %w", err)
		}
	}
	// A fresh (or reset) spool gets its header in the same Write as its
	// first record.
	needHeader := end == 0
	enc := newSpoolEncoder()

	// Only crawl addresses without a record; recovered ones count as done
	// immediately.
	var todo []ethtypes.Address
	for _, a := range addrs {
		if !done[a] {
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
		sortTxs(rows)
		mu.Lock()
		defer mu.Unlock()
		rec, err := enc.record(needHeader, addr, rows)
		if err != nil {
			return fmt.Errorf("spool %s: %w", addr, err)
		}
		if _, err := spool.Write(rec); err != nil {
			return fmt.Errorf("spool %s: %w", addr, err)
		}
		needHeader = false
		if fsync {
			if err := spool.Sync(); err != nil {
				return fmt.Errorf("sync spool %s: %w", addr, err)
			}
		}
		// The record is whole on disk: from here on a crash must not
		// re-crawl the address. Chaos tests park a crash point on this
		// seam to prove it.
		if err := vfs.Hit(fsys, "dataset.spool.post-append"); err != nil {
			return fmt.Errorf("spool %s: %w", addr, err)
		}
		for _, tx := range rows {
			absorb(tx)
		}
		onAddressDone()
		return nil
	})
	if cerr := spool.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("dataset: close spool: %w", cerr)
	}
	return err
}

// spoolEncoder frames spool records into one reused buffer, so it is not
// safe for concurrent use.
type spoolEncoder struct {
	buf bytes.Buffer
	w   *codec.Writer
}

func newSpoolEncoder() *spoolEncoder {
	e := &spoolEncoder{}
	e.w = codec.NewWriter(&e.buf)
	return e
}

// record returns addr's framed record, preceded by the spool header when
// header is set. rows must be in (timestamp, hash) order, as
// encodeTxColumns requires. The result aliases the encoder's buffer
// until the next call.
func (e *spoolEncoder) record(header bool, addr ethtypes.Address, rows []*Tx) ([]byte, error) {
	e.buf.Reset()
	start := 0
	if header {
		e.w.Raw(spoolMagic)
		e.w.U16(binVersion)
		start = spoolHeaderLen
	}
	var frame [recordHeaderLen]byte // length and checksum, patched below
	e.w.Raw(frame[:])
	e.w.Raw(addr[:])
	e.w.Uvarint(uint64(len(rows)))
	addrs, from, to := endpointIDs(rows)
	encodeTxColumns(e.w, rows, addrs, from, to)
	if err := e.w.Flush(); err != nil {
		return nil, err
	}
	b := e.buf.Bytes()
	payload := b[start+recordHeaderLen:]
	if uint64(len(payload)) > math.MaxUint32 {
		return nil, fmt.Errorf("dataset: %d-byte spool record exceeds the u32 length field", len(payload))
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], recordChecksum(b[start:start+4], payload))
	return b, nil
}

// recordChecksum is the CRC-32C of a record's length field and payload.
func recordChecksum(length, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(length, castagnoli), castagnoli, payload)
}

// replaySpool decodes a spool file's bytes. It returns the records that
// check, in file order, and the offset where the spool's valid prefix
// ends: len(data) for an intact spool, the start of a torn final record
// (which the caller truncates away and re-crawls), or 0 for a spool
// shorter than its header (which the caller resets). Damage that is not
// a torn tail fails with ErrSpoolCorrupt, and a spool of another version
// with a version error. It reads nothing but data, so it can be fuzzed.
func replaySpool(data []byte) ([]spoolRecord, int, error) {
	if len(data) < spoolHeaderLen {
		return nil, 0, nil
	}
	if !bytes.Equal(data[:len(spoolMagic)], spoolMagic) {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrSpoolCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[len(spoolMagic):]); v != binVersion {
		return nil, 0, fmt.Errorf("dataset: spool version %d not supported (want %d)", v, binVersion)
	}
	var recs []spoolRecord
	off := spoolHeaderLen
	for off < len(data) {
		rest := data[off:]
		if len(rest) < recordHeaderLen {
			return recs, off, nil // torn: short header
		}
		n := uint64(binary.LittleEndian.Uint32(rest))
		if n > uint64(len(rest)-recordHeaderLen) {
			return recs, off, nil // torn: length past EOF
		}
		end := off + recordHeaderLen + int(n)
		addr, txs, err := decodeSpoolRecord(data[off:end])
		if err != nil {
			if allZero(data[end:]) {
				return recs, off, nil // torn: checksum or payload, at the tail
			}
			return nil, 0, fmt.Errorf("%w: record at byte %d is followed by more data: %w", ErrSpoolCorrupt, off, err)
		}
		recs = append(recs, spoolRecord{addr: addr, txs: txs, off: off, end: end})
		off = end
	}
	return recs, off, nil
}

// decodeSpoolRecord checks and decodes one record; b holds exactly its
// header and its declared payload.
func decodeSpoolRecord(b []byte) (ethtypes.Address, []Tx, error) {
	var addr ethtypes.Address
	payload := b[recordHeaderLen:]
	if recordChecksum(b[:4], payload) != binary.LittleEndian.Uint32(b[4:]) {
		return addr, nil, errors.New("checksum mismatch")
	}
	r := codec.NewReader(payload)
	copy(addr[:], r.Raw(len(addr)))
	rows := r.Uvarint()
	if r.Err() == nil && rows > uint64(r.Remaining()) {
		return addr, nil, fmt.Errorf("%d rows declared in %d bytes", rows, r.Remaining())
	}
	c, err := decodeTxColumns(r, int(rows))
	if err != nil {
		return addr, nil, err
	}
	if err := r.Err(); err != nil {
		return addr, nil, err
	}
	if n := r.Remaining(); n != 0 {
		return addr, nil, fmt.Errorf("%d bytes after the rows", n)
	}
	return addr, c.txs, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
