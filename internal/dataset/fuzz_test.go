package dataset

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ensdropcatch/internal/dataset/codec"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

// FuzzLoadSnapshot mutates binary snapshots and runs what Load runs on
// them, loadSnapshot, so the index build from the file's endpoint ids
// also sees every dataset a hostile file decodes to. Each input must
// decode to a dataset whose indexes agree with a scan of its rows, or
// fail with an error wrapping ErrCorrupt (or a version mismatch); it must
// never panic or allocate more than a bound set by its length.
func FuzzLoadSnapshot(f *testing.F) {
	res, err := world.Generate(world.DefaultConfig(50))
	if err != nil {
		f.Fatal(err)
	}
	ds, err := FromWorld(context.Background(), res, BuildOptions{})
	if err != nil {
		f.Fatal(err)
	}
	full := snapshotBytes(f, ds)
	f.Add(full)
	f.Add(snapshotBytes(f, edgeFixture(f)))

	// Cut at every section boundary and mid-payload; tamper with every
	// section's row count and payload length.
	off := len(binMagic) + 2 + 1
	for range numSections {
		rowsAt, lenAt := off+1, off+9
		plen := int(binary.LittleEndian.Uint64(full[lenAt:]))
		f.Add(full[:off])
		f.Add(full[:lenAt+8+plen/2])
		for _, field := range []int{rowsAt, lenAt} {
			v := binary.LittleEndian.Uint64(full[field:])
			for _, tampered := range []uint64{v + 1, v - 1, 1 << 62} {
				mut := bytes.Clone(full)
				binary.LittleEndian.PutUint64(mut[field:], tampered)
				f.Add(mut)
			}
		}
		off = lenAt + 8 + plen
	}
	f.Add(full[:len(full)-1])
	for _, c := range hostileTxSections(f) {
		f.Add(withTxSection(full, c))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds, err := loadSnapshot(data)
		runtime.ReadMemStats(&after)
		// Every row costs at least one payload byte and decodes to at
		// most a few hundred bytes of structs and index entries.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(data)); grew > bound {
			t.Fatalf("%d-byte input allocated %d bytes, bound %d", len(data), grew, bound)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !wrongVersion(data) {
				t.Fatalf("err = %v, want ErrCorrupt or a version mismatch", err)
			}
			return
		}
		checkIndexesMatchScan(t, ds)
	})
}

// wrongVersion reports whether data has the snapshot magic and a full
// header declaring a version other than binVersion.
func wrongVersion(data []byte) bool {
	hdr := len(binMagic) + 2 + 1
	return len(data) >= hdr && bytes.HasPrefix(data, binMagic) &&
		binary.LittleEndian.Uint16(data[len(binMagic):]) != binVersion
}

func snapshotBytes(tb testing.TB, ds *Dataset) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.snap")
	if err := ds.SaveSnapshot(path); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// hostileTxColumns holds a tx section the decoder must refuse: rows
// rows in payload.
type hostileTxColumns struct {
	name    string
	rows    int
	payload []byte
}

// hostileTxSections encodes the edge fixture's rows wrong in each way the
// tx section's decoder checks: an id past the address table, a table out
// of order and one with a repeated entry, two rows out of (timestamp,
// hash) order by timestamp and by hash, and value lengths that run past
// the payload.
func hostileTxSections(tb testing.TB) []hostileTxColumns {
	tb.Helper()
	txs, addrs, from, to := edgeFixture(tb).txsToSave()
	encode := func(name string, txs []*Tx, addrs []ethtypes.Address, from, to []int32) hostileTxColumns {
		var buf bytes.Buffer
		w := codec.NewWriter(&buf)
		encodeTxColumns(w, txs, addrs, from, to)
		if err := w.Flush(); err != nil {
			tb.Fatal(err)
		}
		return hostileTxColumns{name, len(txs), buf.Bytes()}
	}
	pastTable := slices.Clone(from)
	pastTable[0] = int32(len(addrs))
	swapped := slices.Clone(addrs)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	repeated := slices.Clone(addrs)
	repeated[1] = repeated[0]
	if txs[0].Timestamp == txs[1].Timestamp || txs[1].Timestamp != txs[2].Timestamp {
		tb.Fatal("edge fixture: want rows 0 and 1 at distinct timestamps, rows 1 and 2 at one")
	}
	swapRows := func(name string, i, j int) hostileTxColumns {
		t2, f2, to2 := slices.Clone(txs), slices.Clone(from), slices.Clone(to)
		t2[i], t2[j] = t2[j], t2[i]
		f2[i], f2[j] = f2[j], f2[i]
		to2[i], to2[j] = to2[j], to2[i]
		return encode(name, t2, addrs, f2, to2)
	}
	cases := []hostileTxColumns{
		encode("id past the table", txs, addrs, pastTable, to),
		encode("table out of order", txs, swapped, from, to),
		encode("repeated table entry", txs, repeated, from, to),
		swapRows("rows out of timestamp order", 0, 1),
		swapRows("rows out of hash order", 1, 2),
	}
	// One row whose value is the payload's only long run; its one-byte
	// length then claims more than the rest of the payload holds.
	long := []*Tx{{Hash: ethtypes.HashData([]byte("idx-edge-long")), Timestamp: 1, ValueWei: strings.Repeat("9", 100)}}
	la, lf, lt := endpointIDs(long)
	c := encode("value lengths past the payload", long, la, lf, lt)
	at := bytes.Index(c.payload, []byte(long[0].ValueWei)) - 1
	if c.payload[at] != 100 {
		tb.Fatalf("value length byte = %d, want 100", c.payload[at])
	}
	c.payload[at] = 0x7f
	return append(cases, c)
}

// withTxSection returns the snapshot full with its tx section replaced
// by c.
func withTxSection(full []byte, c hostileTxColumns) []byte {
	off := len(binMagic) + 2 + 1
	for range numSections {
		plen := int(binary.LittleEndian.Uint64(full[off+9:]))
		end := off + 17 + plen
		if full[off] == secTxs {
			out := bytes.Clone(full[:off+1])
			out = binary.LittleEndian.AppendUint64(out, uint64(c.rows))
			out = binary.LittleEndian.AppendUint64(out, uint64(len(c.payload)))
			out = append(out, c.payload...)
			return append(out, full[end:]...)
		}
		off = end
	}
	panic("snapshot has no tx section")
}

// spoolRecordBytes frames payload as one spool record with a checksum
// that checks.
func spoolRecordBytes(payload []byte) []byte {
	rec := make([]byte, recordHeaderLen, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], recordChecksum(rec[:4], payload))
	return append(rec, payload...)
}

// FuzzReplaySpool runs resume's spool recovery on hostile bytes. Each
// input must yield records that tile the file from its header to a
// record boundary (the valid prefix, which replays whole on its own), or
// fail with ErrSpoolCorrupt, or with a version error for a header of
// another version; it must never panic or allocate more than the bound
// FuzzLoadSnapshot sets by input length.
func FuzzReplaySpool(f *testing.F) {
	full := realSpool(f)
	recs, end, err := replaySpool(full)
	if err != nil || end != len(full) || len(recs) < 2 {
		f.Fatalf("seed spool: %d records replay to %d of %d bytes: %v", len(recs), end, len(full), err)
	}
	f.Add(full)

	// Cuts: inside the header, inside a record header, mid-payload, one
	// byte short; a zero-filled tail.
	second := recs[1].off
	for _, cut := range []int{0, len(spoolMagic), spoolHeaderLen + 3, second + recordHeaderLen/2, (second + recs[1].end) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	f.Add(append(bytes.Clone(full[:second+5]), make([]byte, 64)...))
	// A flipped checksum in the first and in the last record, a huge
	// length, another version, a wrong magic.
	for _, at := range []int{spoolHeaderLen + 4, recs[len(recs)-1].off + 4} {
		mut := bytes.Clone(full)
		mut[at] ^= 0x01
		f.Add(mut)
	}
	mut := bytes.Clone(full)
	binary.LittleEndian.PutUint32(mut[spoolHeaderLen:], math.MaxUint32)
	f.Add(mut)
	mut = bytes.Clone(full)
	binary.LittleEndian.PutUint16(mut[len(spoolMagic):], binVersion+1)
	f.Add(mut)
	mut = bytes.Clone(full)
	mut[0] ^= 0xff
	f.Add(mut)
	// A version 1 header; and past the checksum, each tx column fault
	// the decoder refuses, as the last record (a torn tail) and as the
	// first (corruption).
	mut = bytes.Clone(full)
	binary.LittleEndian.PutUint16(mut[len(spoolMagic):], 1)
	f.Add(mut)
	for _, c := range hostileTxSections(f) {
		payload := append(bytes.Clone(recs[0].addr[:]), byte(c.rows))
		rec := spoolRecordBytes(append(payload, c.payload...))
		f.Add(append(bytes.Clone(full), rec...))
		f.Add(slices.Concat(full[:spoolHeaderLen], rec, full[spoolHeaderLen:]))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, end, err := replaySpool(data)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(data)); grew > bound {
			t.Fatalf("%d-byte input allocated %d bytes, bound %d", len(data), grew, bound)
		}
		if err != nil {
			wrongVersion := len(data) >= spoolHeaderLen && bytes.HasPrefix(data, spoolMagic) &&
				binary.LittleEndian.Uint16(data[len(spoolMagic):]) != binVersion
			if !errors.Is(err, ErrSpoolCorrupt) && !wrongVersion {
				t.Fatalf("err = %v, want ErrSpoolCorrupt or a version mismatch", err)
			}
			return
		}
		if len(data) < spoolHeaderLen {
			if end != 0 || len(recs) != 0 {
				t.Fatalf("%d-byte spool: %d records to byte %d, want a reset", len(data), len(recs), end)
			}
			return
		}
		off := spoolHeaderLen
		for i, r := range recs {
			if r.off != off || r.end <= r.off {
				t.Fatalf("record %d spans [%d, %d), want it to start at %d", i, r.off, r.end, off)
			}
			off = r.end
		}
		if end != off || end > len(data) {
			t.Fatalf("valid prefix ends at %d, records at %d, input %d bytes", end, off, len(data))
		}
		again, end2, err := replaySpool(data[:end])
		if err != nil || end2 != end || len(again) != len(recs) {
			t.Fatalf("valid prefix replays to %d records and byte %d (%v), want %d and %d", len(again), end2, err, len(recs), end)
		}
	})
}

// realSpool runs a resumable crawl of a 50-domain world and returns the
// spool it leaves.
func realSpool(f *testing.F) []byte {
	f.Helper()
	res, err := world.Generate(world.DefaultConfig(50))
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	_, err = Build(context.Background(), &StoreSource{Store: subgraph.BuildIndex(res.Chain)},
		&ChainSource{Chain: res.Chain, Labels: LabelsFromWorld(res)}, NewMarketEventsSource(res.OpenSea),
		BuildOptions{Start: res.Config.Start, End: res.Config.End, ResumeDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, spoolFile))
	if err != nil {
		f.Fatal(err)
	}
	return data
}
