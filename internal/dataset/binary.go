package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"ensdropcatch/internal/dataset/codec"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/vfs"
)

// Binary columnar snapshot (dataset.bin), the dataset's only on-disk
// format, written by Save and SaveSnapshot. Layout (all integers via the
// codec package: varints for values, little-endian fixed widths for
// framing):
//
//	magic "ENSDSB1\n" · version u16 · section count u8
//	5 × section: id u8 · row count u64 · payload length u64 · payload
//	footer "ENSDEND\n"
//
// Sections appear in a fixed order (meta, domains, txs, subdomains,
// market) and each payload stores its rows column-at-a-time
// (struct-of-arrays), so decoding fills contiguous slabs and the index
// build walks near-contiguous memory instead of pointer-chasing millions
// of individually allocated rows. Row counts and payload lengths are
// declared up front and the decoder consumes every payload exactly, so
// truncating the file at any byte — or tampering with any count — fails
// decode by construction rather than silently shortening the dataset.
//
// Version 2 stores the tx section's endpoints as uvarint ids into one
// table of the section's distinct addresses in strictly ascending order,
// and its rows in (timestamp, hash) order, the order Reindex leaves Txs
// in; Load indexes straight from those ids and neither sorts nor hashes
// a row. Every string column (labels, amounts, owners) is a length
// column followed by one byte run, which decodes into a single string
// that each value slices. The resume spool (resume.go) stores its rows
// in the same tx column encoding and carries binVersion too, so it
// follows every bump.
const binVersion = 2

var (
	binMagic  = []byte("ENSDSB1\n")
	binFooter = []byte("ENSDEND\n")
)

// Section identifiers, in their required file order.
const (
	secMeta uint8 = 1 + iota
	secDomains
	secTxs
	secSubdomains
	secMarket

	numSections = 5
)

func (ds *Dataset) saveBinary(fsys vfs.FS, path string, sync bool) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("dataset: mkdir: %w", err)
		}
	}
	return writeAtomic(fsys, path, sync, func(f vfs.File) error {
		return encodeDataset(f, ds)
	})
}

// encodeDataset writes the full snapshot onto f. Section payload
// lengths are not known until a section is written, so a placeholder is
// emitted, the payload flushed, and the true length patched in place
// with WriteAt — the codec writer's byte count doubles as the file
// offset because every byte goes through it.
func encodeDataset(f vfs.File, ds *Dataset) error {
	w := codec.NewWriter(f)
	w.Raw(binMagic)
	w.U16(binVersion)
	w.U8(numSections)

	domains := ds.sortedDomains()
	txs, addrs, from, to := ds.txsToSave()
	subs := ds.sortedSubdomains()
	market := ds.sortedMarket()
	coin := sortedAddrs(ds.Coinbase)
	other := sortedAddrs(ds.OtherCustodial)

	section := func(id uint8, rows int, encode func()) error {
		w.U8(id)
		w.U64(uint64(rows))
		lenAt := w.Offset()
		w.U64(0) // payload length placeholder, patched below
		start := w.Offset()
		encode()
		if err := w.Flush(); err != nil {
			return fmt.Errorf("dataset: encode section %d: %w", id, err)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(w.Offset()-start))
		if _, err := f.WriteAt(buf[:], lenAt); err != nil {
			return fmt.Errorf("dataset: patch section %d length: %w", id, err)
		}
		return nil
	}

	if err := section(secMeta, len(coin)+len(other), func() {
		w.Varint(ds.Start)
		w.Varint(ds.End)
		w.Uvarint(uint64(len(coin)))
		for _, a := range coin {
			w.Raw(a[:])
		}
		w.Uvarint(uint64(len(other)))
		for _, a := range other {
			w.Raw(a[:])
		}
	}); err != nil {
		return err
	}
	if err := section(secDomains, len(domains), func() { encodeDomainColumns(w, domains) }); err != nil {
		return err
	}
	if err := section(secTxs, len(txs), func() { encodeTxColumns(w, txs, addrs, from, to) }); err != nil {
		return err
	}
	if err := section(secSubdomains, len(subs), func() { encodeSubdomainColumns(w, subs) }); err != nil {
		return err
	}
	if err := section(secMarket, len(market), func() { encodeMarketColumns(w, market) }); err != nil {
		return err
	}

	w.Raw(binFooter)
	return w.Flush()
}

func loadBinaryFile(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	ds, err := loadSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return ds, nil
}

// loadSnapshot decodes a snapshot and indexes it from the file's
// endpoint ids, in the file's row order.
func loadSnapshot(data []byte) (*Dataset, error) {
	ds, err := decodeDataset(data)
	if err != nil {
		return nil, err
	}
	ds.index()
	return ds, nil
}

func decodeDataset(data []byte) (*Dataset, error) {
	r := codec.NewReader(data)
	if magic := r.Raw(len(binMagic)); r.Err() != nil || !bytes.Equal(magic, binMagic) {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	v := r.U16()
	nsec := r.U8()
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if v != binVersion {
		return nil, fmt.Errorf("dataset: snapshot version %d not supported (want %d)", v, binVersion)
	}
	if nsec != numSections {
		return nil, fmt.Errorf("%w: %d sections declared, want %d", ErrCorrupt, nsec, numSections)
	}

	ds := New(0, 0)
	for _, want := range []uint8{secMeta, secDomains, secTxs, secSubdomains, secMarket} {
		id := r.U8()
		rows := r.U64()
		plen := r.U64()
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: truncated section table", ErrCorrupt)
		}
		if id != want {
			return nil, fmt.Errorf("%w: section id %d where %d expected", ErrCorrupt, id, want)
		}
		payload := r.Raw(int(plen))
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: section %d payload truncated (declares %d bytes)", ErrCorrupt, id, plen)
		}
		// Every row occupies at least one payload byte in every section,
		// so a corrupted row count cannot drive a huge allocation.
		if rows > plen+1 {
			return nil, fmt.Errorf("%w: section %d declares %d rows in %d bytes", ErrCorrupt, id, rows, plen)
		}
		sr := codec.NewReader(payload)
		var derr error
		switch id {
		case secMeta:
			derr = decodeMeta(sr, int(rows), ds)
		case secDomains:
			derr = decodeDomainColumns(sr, int(rows), ds)
		case secTxs:
			var c txColumns
			if c, derr = decodeTxColumns(sr, int(rows)); derr == nil {
				ds.Txs = make([]*Tx, len(c.txs))
				for i := range c.txs {
					ds.Txs[i] = &c.txs[i]
				}
				ds.addrs, ds.from, ds.to = c.addrs, c.from, c.to
			}
		case secSubdomains:
			derr = decodeSubdomainColumns(sr, int(rows), ds)
		case secMarket:
			derr = decodeMarketColumns(sr, int(rows), ds)
		}
		if derr != nil {
			return nil, derr
		}
		if err := sr.Err(); err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, id, err)
		}
		if n := sr.Remaining(); n != 0 {
			return nil, fmt.Errorf("%w: section %d has %d undeclared trailing bytes", ErrCorrupt, id, n)
		}
	}

	if footer := r.Raw(len(binFooter)); r.Err() != nil || !bytes.Equal(footer, binFooter) {
		return nil, fmt.Errorf("%w: bad snapshot footer", ErrCorrupt)
	}
	if n := r.Remaining(); n != 0 {
		return nil, fmt.Errorf("%w: %d bytes after footer", ErrCorrupt, n)
	}
	return ds, nil
}

func decodeMeta(r *codec.Reader, rows int, ds *Dataset) error {
	ds.Start = r.Varint()
	ds.End = r.Varint()
	readAddrs := func(into map[ethtypes.Address]bool) int {
		n := r.Uvarint()
		count := 0
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			var a ethtypes.Address
			copy(a[:], r.Raw(len(a)))
			into[a] = true
			count++
		}
		return count
	}
	got := readAddrs(ds.Coinbase) + readAddrs(ds.OtherCustodial)
	if r.Err() == nil && got != rows {
		return fmt.Errorf("%w: meta section declares %d custodial addresses, holds %d", ErrCorrupt, rows, got)
	}
	return nil
}

func encodeDomainColumns(w *codec.Writer, domains []*Domain) {
	total := 0
	for _, d := range domains {
		total += len(d.Events)
	}
	w.Uvarint(uint64(total))
	for _, d := range domains {
		w.Raw(d.LabelHash[:])
	}
	writeStrings(w, len(domains), func(i int) string { return domains[i].Label })
	for _, d := range domains {
		w.Uvarint(uint64(len(d.Events)))
	}
	var types stringTable
	for _, d := range domains {
		for i := range d.Events {
			types.add(string(d.Events[i].Type))
		}
	}
	types.write(w)
	for _, d := range domains {
		for i := range d.Events {
			w.Uvarint(types.add(string(d.Events[i].Type)))
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.Raw(d.Events[i].Registrant[:])
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.Varint(d.Events[i].Expiry)
		}
	}
	events := make([]*Event, 0, total)
	for _, d := range domains {
		for i := range d.Events {
			events = append(events, &d.Events[i])
		}
	}
	writeStrings(w, total, func(i int) string { return events[i].CostWei })
	writeStrings(w, total, func(i int) string { return events[i].PremiumWei })
	for _, d := range domains {
		for i := range d.Events {
			w.Varint(d.Events[i].Timestamp)
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.Uvarint(d.Events[i].Block)
		}
	}
	for _, d := range domains {
		for i := range d.Events {
			w.Raw(d.Events[i].TxHash[:])
		}
	}
}

func decodeDomainColumns(r *codec.Reader, rows int, ds *Dataset) error {
	total := r.Uvarint()
	if r.Err() == nil && total > uint64(r.Remaining()) {
		return fmt.Errorf("%w: domain section declares %d events beyond its payload", ErrCorrupt, total)
	}
	doms := make([]Domain, rows)
	for i := range doms {
		copy(doms[i].LabelHash[:], r.Raw(len(doms[i].LabelHash)))
	}
	if err := readStrings(r, rows, func(i int, s string) { doms[i].Label = s }); err != nil {
		return err
	}
	counts := make([]uint64, rows)
	var sum uint64
	for i := range counts {
		counts[i] = r.Uvarint()
		if r.Err() == nil && counts[i] > total-sum {
			return fmt.Errorf("%w: per-domain event counts exceed declared total %d", ErrCorrupt, total)
		}
		sum += counts[i]
	}
	if r.Err() == nil && sum != total {
		return fmt.Errorf("%w: per-domain event counts sum to %d, section declares %d", ErrCorrupt, sum, total)
	}
	types := readStringTable(r)
	events := make([]Event, total)
	for i := range events {
		id := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if id >= uint64(len(types)) {
			return fmt.Errorf("%w: event type id %d out of table range %d", ErrCorrupt, id, len(types))
		}
		events[i].Type = EventType(types[id])
	}
	for i := range events {
		copy(events[i].Registrant[:], r.Raw(len(events[i].Registrant)))
	}
	for i := range events {
		events[i].Expiry = r.Varint()
	}
	if err := readStrings(r, len(events), func(i int, s string) { events[i].CostWei = s }); err != nil {
		return err
	}
	if err := readStrings(r, len(events), func(i int, s string) { events[i].PremiumWei = s }); err != nil {
		return err
	}
	for i := range events {
		events[i].Timestamp = r.Varint()
	}
	for i := range events {
		events[i].Block = r.Uvarint()
	}
	for i := range events {
		copy(events[i].TxHash[:], r.Raw(len(events[i].TxHash)))
	}
	if r.Err() != nil {
		return nil // surfaced by the caller's sr.Err() check
	}
	ds.Domains = make(map[ethtypes.Hash]*Domain, rows)
	off := uint64(0)
	for i := range doms {
		n := counts[i]
		doms[i].Events = events[off : off+n : off+n]
		off += n
		ds.Domains[doms[i].LabelHash] = &doms[i]
	}
	if len(ds.Domains) != rows {
		return fmt.Errorf("%w: %d domain rows collapse to %d distinct label hashes", ErrCorrupt, rows, len(ds.Domains))
	}
	return nil
}

// encodeTxColumns writes txs column-at-a-time, each endpoint as an id
// into addrs: endpointIDs's table and ids for txs. txs must be in
// (timestamp, hash) order: timestamps are delta-encoded against the
// previous row, and the decoder refuses any other order.
func encodeTxColumns(w *codec.Writer, txs []*Tx, addrs []ethtypes.Address, from, to []int32) {
	w.Uvarint(uint64(len(addrs)))
	for i := range addrs {
		w.Raw(addrs[i][:])
	}
	for _, tx := range txs {
		w.Raw(tx.Hash[:])
	}
	for _, tx := range txs {
		w.Uvarint(tx.Block)
	}
	var prev int64
	for i, tx := range txs {
		if i == 0 {
			w.Varint(tx.Timestamp)
		} else {
			w.Uvarint(uint64(tx.Timestamp - prev))
		}
		prev = tx.Timestamp
	}
	for _, id := range from {
		w.Uvarint(uint64(id))
	}
	for _, id := range to {
		w.Uvarint(uint64(id))
	}
	writeStrings(w, len(txs), func(i int) string { return txs[i].ValueWei })
	bits := make([]byte, (len(txs)+7)/8)
	for i, tx := range txs {
		if tx.Failed {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	w.Raw(bits)
	var methods stringTable
	for _, tx := range txs {
		methods.add(tx.Method)
	}
	methods.write(w)
	for _, tx := range txs {
		w.Uvarint(methods.add(tx.Method))
	}
}

// txColumns is a decoded tx section: the rows in one slab, with their
// endpoint table and ids as Dataset keeps them.
type txColumns struct {
	txs      []Tx
	addrs    []ethtypes.Address
	from, to []int32
}

// decodeTxColumns reads rows transactions into one contiguous slab, so
// the index build walks sequential memory instead of scattered heap
// allocations. It refuses an address table out of strictly ascending
// order, an id past the table and rows out of (timestamp, hash) order.
func decodeTxColumns(r *codec.Reader, rows int) (txColumns, error) {
	var c txColumns
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()/len(ethtypes.Address{})) {
		return c, fmt.Errorf("%w: tx section declares %d addresses beyond its payload", ErrCorrupt, n)
	}
	c.addrs = make([]ethtypes.Address, n)
	for i := range c.addrs {
		copy(c.addrs[i][:], r.Raw(len(c.addrs[i])))
		if i > 0 && r.Err() == nil && bytes.Compare(c.addrs[i-1][:], c.addrs[i][:]) >= 0 {
			return c, fmt.Errorf("%w: tx address %d is not above its predecessor", ErrCorrupt, i)
		}
	}
	txs := make([]Tx, rows)
	for i := range txs {
		copy(txs[i].Hash[:], r.Raw(len(txs[i].Hash)))
	}
	for i := range txs {
		txs[i].Block = r.Uvarint()
	}
	for i := range txs {
		if i == 0 {
			txs[i].Timestamp = r.Varint()
			continue
		}
		txs[i].Timestamp = txs[i-1].Timestamp + int64(r.Uvarint())
		if r.Err() == nil && compareTxs(&txs[i-1], &txs[i]) > 0 {
			return c, fmt.Errorf("%w: tx row %d is out of (timestamp, hash) order", ErrCorrupt, i)
		}
	}
	var err error
	if c.from, err = readIDs(r, rows, len(c.addrs)); err != nil {
		return c, err
	}
	if c.to, err = readIDs(r, rows, len(c.addrs)); err != nil {
		return c, err
	}
	if err := readStrings(r, rows, func(i int, s string) { txs[i].ValueWei = s }); err != nil {
		return c, err
	}
	bits := r.Raw((rows + 7) / 8)
	if bits != nil {
		for i := range txs {
			if bits[i/8]&(1<<(i%8)) != 0 {
				txs[i].Failed = true
			}
		}
	}
	methods := readStringTable(r)
	for i := range txs {
		id := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if id >= uint64(len(methods)) {
			return c, fmt.Errorf("%w: tx method id %d out of table range %d", ErrCorrupt, id, len(methods))
		}
		txs[i].Method = methods[id]
	}
	if r.Err() != nil {
		return c, nil // surfaced by the caller's r.Err() check
	}
	for i := range txs {
		txs[i].From, txs[i].To = c.addrs[c.from[i]], c.addrs[c.to[i]]
	}
	c.txs = txs
	return c, nil
}

// readIDs reads rows uvarint ids, each below n.
func readIDs(r *codec.Reader, rows, n int) ([]int32, error) {
	ids := make([]int32, rows)
	for i := range ids {
		id := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if id >= uint64(n) {
			return nil, fmt.Errorf("%w: tx address id %d out of table range %d", ErrCorrupt, id, n)
		}
		ids[i] = int32(id)
	}
	return ids, nil
}

func encodeSubdomainColumns(w *codec.Writer, subs []Subdomain) {
	for i := range subs {
		w.Raw(subs[i].Node[:])
	}
	for i := range subs {
		w.Raw(subs[i].Parent[:])
	}
	writeStrings(w, len(subs), func(i int) string { return subs[i].Name })
	writeStrings(w, len(subs), func(i int) string { return subs[i].Owner })
	for i := range subs {
		w.Varint(subs[i].Created)
	}
}

func decodeSubdomainColumns(r *codec.Reader, rows int, ds *Dataset) error {
	subs := make([]Subdomain, rows)
	for i := range subs {
		copy(subs[i].Node[:], r.Raw(len(subs[i].Node)))
	}
	for i := range subs {
		copy(subs[i].Parent[:], r.Raw(len(subs[i].Parent)))
	}
	if err := readStrings(r, rows, func(i int, s string) { subs[i].Name = s }); err != nil {
		return err
	}
	if err := readStrings(r, rows, func(i int, s string) { subs[i].Owner = s }); err != nil {
		return err
	}
	for i := range subs {
		subs[i].Created = r.Varint()
	}
	ds.Subdomains = subs
	return nil
}

// encodeMarketColumns writes the flattened market events. events must
// already be in sortedMarket order: timestamps are delta-encoded, and
// the decoder rebuilds the per-token lists by appending in file order,
// which reproduces the per-token time order the fingerprint hashes.
func encodeMarketColumns(w *codec.Writer, events []MarketEvent) {
	var kinds stringTable
	for i := range events {
		kinds.add(string(events[i].Kind))
	}
	kinds.write(w)
	for i := range events {
		w.Uvarint(kinds.add(string(events[i].Kind)))
	}
	for i := range events {
		w.Raw(events[i].TokenID[:])
	}
	writeStrings(w, len(events), func(i int) string { return events[i].Seller })
	writeStrings(w, len(events), func(i int) string { return events[i].Buyer })
	for i := range events {
		w.F64(events[i].PriceUSD)
	}
	var prev int64
	for i := range events {
		if i == 0 {
			w.Varint(events[i].Timestamp)
		} else {
			w.Uvarint(uint64(events[i].Timestamp - prev))
		}
		prev = events[i].Timestamp
	}
}

func decodeMarketColumns(r *codec.Reader, rows int, ds *Dataset) error {
	kinds := readStringTable(r)
	events := make([]MarketEvent, rows)
	for i := range events {
		id := r.Uvarint()
		if r.Err() != nil {
			break
		}
		if id >= uint64(len(kinds)) {
			return fmt.Errorf("%w: market kind id %d out of table range %d", ErrCorrupt, id, len(kinds))
		}
		events[i].Kind = MarketEventKind(kinds[id])
	}
	for i := range events {
		copy(events[i].TokenID[:], r.Raw(len(events[i].TokenID)))
	}
	if err := readStrings(r, rows, func(i int, s string) { events[i].Seller = s }); err != nil {
		return err
	}
	if err := readStrings(r, rows, func(i int, s string) { events[i].Buyer = s }); err != nil {
		return err
	}
	for i := range events {
		events[i].PriceUSD = r.F64()
	}
	var prev int64
	for i := range events {
		if i == 0 {
			prev = r.Varint()
		} else {
			prev += int64(r.Uvarint())
		}
		events[i].Timestamp = prev
	}
	if r.Err() != nil {
		return nil // surfaced by the caller's sr.Err() check
	}
	for i := range events {
		ds.Market[events[i].TokenID] = append(ds.Market[events[i].TokenID], events[i])
	}
	return nil
}

// writeStrings writes a string column of n rows, at(i) being row i's:
// every length, then every row's bytes in one run.
func writeStrings(w *codec.Writer, n int, at func(int) string) {
	for i := range n {
		w.Uvarint(uint64(len(at(i))))
	}
	for i := range n {
		w.RawString(at(i))
	}
}

// readStrings reads a string column of n rows and hands row i's value to
// set. The run becomes one string that every value slices, so a column
// costs the same few allocations however many rows it holds.
func readStrings(r *codec.Reader, n int, set func(i int, s string)) error {
	lens := make([]int, n)
	total := 0
	for i := range lens {
		l := r.Uvarint()
		if r.Err() != nil {
			return nil // surfaced by the caller's r.Err() check
		}
		if l > uint64(r.Remaining()) || int(l) > r.Remaining()-total {
			return fmt.Errorf("%w: string lengths run past the payload", ErrCorrupt)
		}
		lens[i] = int(l)
		total += lens[i]
	}
	run := string(r.Raw(total))
	if r.Err() != nil {
		return nil
	}
	off := 0
	for i, l := range lens {
		set(i, run[off:off+l])
		off += l
	}
	return nil
}

// stringTable dictionary-encodes repetitive string columns (event
// types, tx methods, market kinds): the distinct values are written
// once, rows reference them by id. Ids are assigned in first-occurrence
// order, which is deterministic because every encoder walks rows in
// their persisted total order.
type stringTable struct {
	ids  map[string]uint64
	vals []string
}

// add returns the id for s, assigning the next one on first sight.
func (t *stringTable) add(s string) uint64 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint64)
	}
	id := uint64(len(t.vals))
	t.ids[s] = id
	t.vals = append(t.vals, s)
	return id
}

func (t *stringTable) write(w *codec.Writer) {
	w.Uvarint(uint64(len(t.vals)))
	for _, s := range t.vals {
		w.String(s)
	}
}

func readStringTable(r *codec.Reader) []string {
	n := r.Uvarint()
	// Cap the allocation at one entry per remaining byte; a lying count
	// then fails on a short read instead of driving a huge make.
	capHint := n
	if rem := uint64(r.Remaining()); capHint > rem {
		capHint = rem
	}
	vals := make([]string, 0, capHint)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		vals = append(vals, r.String())
	}
	return vals
}
