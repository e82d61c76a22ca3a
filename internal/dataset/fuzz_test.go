package dataset

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ensdropcatch/internal/vfs"
	"ensdropcatch/internal/world"
)

// FuzzLoadSnapshot mutates binary snapshots and runs what Load runs on
// them, decodeDataset then Reindex, so the index build also sees every
// dataset a hostile file decodes to. Each input must decode to a dataset
// whose indexes agree with a scan of its rows, or fail with an error
// wrapping ErrCorrupt (or a version mismatch); it must never panic or
// allocate more than a bound set by its length.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds, err := decodeDataset(data)
		if err == nil {
			ds.Reindex()
		}
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

func snapshotBytes(f *testing.F, ds *Dataset) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.snap")
	if err := ds.SaveSnapshot(path); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzLoadSpoolSnapshot mutates spool snapshots, the cache a resumed
// crawl reads before replaying the spool tail. Each input must decode
// to rows or fail with an error wrapping ErrCorrupt (or a version
// mismatch); it must never panic or allocate more than the bound
// FuzzLoadSnapshot sets by input length.
func FuzzLoadSpoolSnapshot(f *testing.F) {
	res, err := world.Generate(world.DefaultConfig(50))
	if err != nil {
		f.Fatal(err)
	}
	ds, err := FromWorld(context.Background(), res, BuildOptions{})
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), spoolSnapFile)
	if err := writeSpoolSnapshot(vfs.OS, path, ds.Txs, 4096, false); err != nil {
		f.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)

	// Cut inside the header, after it, mid-columns and before the last
	// footer byte; tamper with the covered offset, the row count and the
	// version.
	coveredAt := len(snapMagic) + 2
	rowsAt := coveredAt + 8
	for _, cut := range []int{len(snapMagic), rowsAt, rowsAt + 8, (rowsAt + len(full)) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	rows := binary.LittleEndian.Uint64(full[rowsAt:])
	for _, tc := range []struct {
		at int
		v  uint64
	}{{rowsAt, rows + 1}, {rowsAt, rows - 1}, {rowsAt, 1 << 62}, {coveredAt, 1 << 63}} {
		mut := bytes.Clone(full)
		binary.LittleEndian.PutUint64(mut[tc.at:], tc.v)
		f.Add(mut)
	}
	mut := bytes.Clone(full)
	binary.LittleEndian.PutUint16(mut[len(snapMagic):], binVersion+1)
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		txs, covered, err := decodeSpoolSnapshot(data)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+512*len(data)); grew > bound {
			t.Fatalf("%d-byte input allocated %d bytes, bound %d", len(data), grew, bound)
		}
		if err != nil {
			hdr := len(snapMagic) + 2
			wrongVersion := len(data) >= hdr+16 && bytes.HasPrefix(data, snapMagic) &&
				binary.LittleEndian.Uint16(data[len(snapMagic):]) != binVersion
			if !errors.Is(err, ErrCorrupt) && !wrongVersion {
				t.Fatalf("err = %v, want ErrCorrupt or a version mismatch", err)
			}
			return
		}
		if covered < 0 {
			t.Fatalf("decoded a negative covered offset %d", covered)
		}
		for i, tx := range txs {
			if tx == nil {
				t.Fatalf("row %d decoded to nil", i)
			}
		}
	})
}
