package dataset

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

// crashFixture runs one clean resumable Build and hands back everything a
// crash test needs to damage and re-run it: the spool bytes, the final
// record's boundaries, and the ground-truth transaction set.
type crashFixture struct {
	store     *subgraph.Store
	chainSrc  *ChainSource
	market    *MarketEventsSource
	opts      BuildOptions
	spool     []byte
	lastStart int // byte offset where the final spool record begins
	wantTxs   map[ethtypes.Hash]bool
}

func newCrashFixture(t *testing.T) *crashFixture {
	t.Helper()
	res, err := world.Generate(world.DefaultConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	fx := &crashFixture{
		store:    subgraph.BuildIndex(res.Chain),
		chainSrc: &ChainSource{Chain: res.Chain, Labels: LabelsFromWorld(res)},
		market:   NewMarketEventsSource(res.OpenSea),
	}
	dir := t.TempDir()
	fx.opts = BuildOptions{Start: res.Config.Start, End: res.Config.End, TxWorkers: 2, ResumeDir: dir}
	ds, err := Build(context.Background(), &StoreSource{Store: fx.store}, fx.chainSrc, fx.market, fx.opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.wantTxs = map[ethtypes.Hash]bool{}
	for _, tx := range ds.Txs {
		fx.wantTxs[tx.Hash] = true
	}

	spool, err := os.ReadFile(filepath.Join(dir, spoolFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, end, err := replaySpool(spool)
	if err != nil || end != len(spool) {
		t.Fatalf("clean spool replays to %d of %d bytes: %v", end, len(spool), err)
	}
	// Record order is irrelevant to recovery, and any record can be the
	// one a crash tears. Move the shortest record to the end so the
	// every-byte tear sweep stays fast while still crossing every
	// boundary class (length, checksum, address, row columns).
	shortest := 0
	for i, r := range recs {
		if r.end-r.off < recs[shortest].end-recs[shortest].off {
			shortest = i
		}
	}
	fx.spool = append([]byte(nil), spool[:spoolHeaderLen]...)
	for i, r := range recs {
		if i != shortest {
			fx.spool = append(fx.spool, spool[r.off:r.end]...)
		}
	}
	fx.lastStart = len(fx.spool)
	fx.spool = append(fx.spool, spool[recs[shortest].off:recs[shortest].end]...)
	return fx
}

// restore writes damaged spool bytes into a fresh resume dir and returns
// BuildOptions pointed at it.
func (fx *crashFixture) restore(t *testing.T, spool []byte) BuildOptions {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, spoolFile), spool, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := fx.opts
	opts.ResumeDir = dir
	return opts
}

func (fx *crashFixture) build(t *testing.T, opts BuildOptions) (*Dataset, error) {
	t.Helper()
	return Build(context.Background(), &StoreSource{Store: fx.store}, fx.chainSrc, fx.market, opts)
}

// checkConverged fails unless ds holds exactly the clean crawl's
// transactions and the resume left a spool that replays whole.
func (fx *crashFixture) checkConverged(t *testing.T, what string, ds *Dataset, opts BuildOptions) {
	t.Helper()
	if len(ds.Txs) != len(fx.wantTxs) {
		t.Fatalf("%s: %d txs, want %d", what, len(ds.Txs), len(fx.wantTxs))
	}
	for _, tx := range ds.Txs {
		if !fx.wantTxs[tx.Hash] {
			t.Fatalf("%s: unexpected tx %s", what, tx.Hash)
		}
	}
	spool, err := os.ReadFile(filepath.Join(opts.ResumeDir, spoolFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, end, err := replaySpool(spool); err != nil || end != len(spool) {
		t.Fatalf("%s: healed spool replays to %d of %d bytes: %v", what, end, len(spool), err)
	}
}

// TestResumeConvergesFromSpoolTornAtEveryByte simulates the real crash
// footprint — the final record's append torn at an arbitrary byte — at
// every possible tear position, both as a short file and as a file whose
// torn remainder reads back as zeros (a size update that reached disk
// before the data did), and asserts the resumed Build recovers and
// converges to the clean dataset.
func TestResumeConvergesFromSpoolTornAtEveryByte(t *testing.T) {
	fx := newCrashFixture(t)
	lastLen := len(fx.spool) - fx.lastStart
	t.Logf("final record: %d bytes at offset %d", lastLen, fx.lastStart)

	// cut == lastStart drops the record cleanly; every larger cut leaves
	// a torn prefix.
	for cut := fx.lastStart; cut < len(fx.spool); cut++ {
		torn := fx.spool[:cut]
		zeroed := append(append([]byte(nil), torn...), make([]byte, len(fx.spool)-cut)...)
		for _, tc := range []struct {
			name  string
			spool []byte
		}{{"cut", torn}, {"zero-filled", zeroed}} {
			what := fmt.Sprintf("%s at byte %d of %d", tc.name, cut-fx.lastStart, lastLen)
			opts := fx.restore(t, tc.spool)
			ds, err := fx.build(t, opts)
			if err != nil {
				t.Fatalf("%s: resume failed: %v", what, err)
			}
			fx.checkConverged(t, what, ds, opts)
		}
	}
}

// A flipped payload byte in a non-final record can never be a
// mid-append crash tail: later records were written after it. Resume
// must hard-fail rather than silently re-crawl or drop finished data.
func TestResumeRefusesCorruptMiddleRecord(t *testing.T) {
	fx := newCrashFixture(t)
	spool := append([]byte(nil), fx.spool...)
	// The first record's payload starts after the spool and record
	// headers; flip a byte inside its address.
	spool[spoolHeaderLen+recordHeaderLen+3] ^= 0x40
	opts := fx.restore(t, spool)
	_, err := fx.build(t, opts)
	if !errors.Is(err, ErrSpoolCorrupt) {
		t.Fatalf("err = %v, want ErrSpoolCorrupt", err)
	}
}

// The spool header: one shorter than the header is reset, a wrong magic
// is corruption, and another version is a version error, not corruption.
func TestReplaySpoolHeader(t *testing.T) {
	header := binary.LittleEndian.AppendUint16(append([]byte(nil), spoolMagic...), binVersion)
	for cut := 0; cut < len(header); cut++ {
		if recs, end, err := replaySpool(header[:cut]); err != nil || end != 0 || recs != nil {
			t.Fatalf("%d-byte spool: (%d records, end %d, %v), want a reset", cut, len(recs), end, err)
		}
	}
	if recs, end, err := replaySpool(header); err != nil || end != len(header) || len(recs) != 0 {
		t.Fatalf("bare header: (%d records, end %d, %v), want none up to %d", len(recs), end, err, len(header))
	}
	badMagic := bytes.Clone(header)
	badMagic[0] ^= 0xff
	if _, _, err := replaySpool(badMagic); !errors.Is(err, ErrSpoolCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrSpoolCorrupt", err)
	}
	newer := binary.LittleEndian.AppendUint16(append([]byte(nil), spoolMagic...), binVersion+1)
	if _, _, err := replaySpool(newer); err == nil || errors.Is(err, ErrSpoolCorrupt) || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version %d: err = %v, want a version error", binVersion+1, err)
	}
}

// A resume directory holding the older layout's spool or checkpoint is
// refused before any request, with an error naming the file, so an
// interrupted crawl is never silently restarted from zero.
func TestResumeRefusesLegacyLayoutBeforeAnyRequest(t *testing.T) {
	fx := newCrashFixture(t)
	for _, name := range legacyResumeFiles {
		opts := fx.restore(t, nil)
		path := filepath.Join(opts.ResumeDir, name)
		if err := os.WriteFile(path, []byte("0xabc\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		regs := &countingRegs{inner: &StoreSource{Store: fx.store}}
		txs := &recordingSource{inner: fx.chainSrc}
		_, err := Build(context.Background(), regs, txs, fx.market, opts)
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("%s: err = %v, want one naming %s", name, err, path)
		}
		if regs.calls.Load() != 0 || len(txs.addrs) != 0 {
			t.Fatalf("%s: %d subgraph and %d txlist requests before refusing", name, regs.calls.Load(), len(txs.addrs))
		}
	}
}

// countingRegs counts PageAll calls.
type countingRegs struct {
	inner RegistrationSource
	calls atomic.Int64
}

func (c *countingRegs) PageAll(ctx context.Context, collection string, fields []string) ([]subgraph.Entity, error) {
	c.calls.Add(1)
	return c.inner.PageAll(ctx, collection, fields)
}

func validLabelRow(typ string) subgraph.Entity {
	return subgraph.Entity{
		"label": "0x" + strings.Repeat("ab", 32),
		"type":  typ,
	}
}

// Regression: rows carrying both registrant and newOwner must attribute
// the event to the registrant. The old code unconditionally overwrote it
// with newOwner, misattributing who dropcatches.
func TestAddEventRowPrefersRegistrant(t *testing.T) {
	registrant := "0x" + strings.Repeat("11", 20)
	newOwner := "0x" + strings.Repeat("22", 20)

	ds := &Dataset{Domains: map[ethtypes.Hash]*Domain{}}
	row := validLabelRow(string(EvRegistered))
	row["registrant"] = registrant
	row["newOwner"] = newOwner
	if err := ds.addEventRow(row); err != nil {
		t.Fatal(err)
	}
	var got Event
	for _, d := range ds.Domains {
		got = d.Events[0]
	}
	want, _ := ethtypes.ParseAddress(registrant)
	if got.Registrant != want {
		t.Errorf("Registrant = %s, want registrant %s (newOwner won)", got.Registrant, registrant)
	}

	// newOwner still fills in when no registrant is named.
	ds = &Dataset{Domains: map[ethtypes.Hash]*Domain{}}
	row = validLabelRow(string(EvTransferred))
	row["newOwner"] = newOwner
	if err := ds.addEventRow(row); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds.Domains {
		got = d.Events[0]
	}
	want, _ = ethtypes.ParseAddress(newOwner)
	if got.Registrant != want {
		t.Errorf("Registrant = %s, want newOwner fallback %s", got.Registrant, newOwner)
	}
}

// Regression: unparseable numeric fields must surface as errors, not
// silent zeros that corrupt expiry and dropcatch detection.
func TestIntegerRejectsMalformedValues(t *testing.T) {
	cases := []struct {
		val     any
		want    int64
		wantErr bool
	}{
		{nil, 0, false},
		{"", 0, false},
		{"12345", 12345, false},
		{int64(7), 7, false},
		{float64(9), 9, false},
		{"not-a-number", 0, true},
		{"12x", 0, true},
		{[]string{"1"}, 0, true},
	}
	for _, c := range cases {
		row := subgraph.Entity{"expiryDate": c.val}
		got, err := integer(row, "expiryDate")
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("integer(%#v) = (%d, %v), want (%d, err=%v)", c.val, got, err, c.want, c.wantErr)
		}
	}

	// addEventRow propagates the failure.
	ds := &Dataset{Domains: map[ethtypes.Hash]*Domain{}}
	row := validLabelRow(string(EvRegistered))
	row["expiryDate"] = "garbage"
	if err := ds.addEventRow(row); err == nil {
		t.Error("addEventRow swallowed a malformed expiryDate")
	}
}

func TestFromRecordRejectsMalformedNumbers(t *testing.T) {
	rec := validTxRecord()
	rec.BlockNumber = "0xdeadbeef" // hex, not the decimal etherscan emits
	if _, err := fromRecord(&rec); err == nil {
		t.Error("bad block number accepted")
	}
	rec = validTxRecord()
	rec.TimeStamp = "yesterday"
	if _, err := fromRecord(&rec); err == nil {
		t.Error("bad timestamp accepted")
	}
	rec = validTxRecord()
	if _, err := fromRecord(&rec); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
}

func validTxRecord() etherscan.TxRecord {
	return etherscan.TxRecord{
		BlockNumber: "123456",
		TimeStamp:   "1600000000",
		Hash:        "0x" + strings.Repeat("cd", 32),
		From:        "0x" + strings.Repeat("33", 20),
		To:          "0x" + strings.Repeat("44", 20),
		Value:       "1000000000000000000",
		IsError:     "0",
	}
}
