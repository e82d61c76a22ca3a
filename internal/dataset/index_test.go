package dataset

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ensdropcatch/internal/ethtypes"
)

// indexFixture builds a small dataset with deliberate transaction placement
// for exercising the binary-searched accessors.
func indexFixture(t *testing.T) (*Dataset, ethtypes.Address, ethtypes.Address, ethtypes.Address) {
	t.Helper()
	ds := New(0, 100_000)
	a := ethtypes.DeriveAddress("idx-a")
	b := ethtypes.DeriveAddress("idx-b")
	c := ethtypes.DeriveAddress("idx-c")
	add := func(from, to ethtypes.Address, ts int64, failed bool) {
		h := ethtypes.HashData([]byte(fmt.Sprintf("idx-tx-%s-%s-%d-%v", from, to, ts, failed)))
		ds.Txs = append(ds.Txs, &Tx{Hash: h, Timestamp: ts, From: from, To: to, ValueWei: "1000000000000000000", Failed: failed})
	}
	add(a, b, 100, false)
	add(a, b, 200, false)
	add(a, b, 300, true) // failed: excluded from in/out indexes
	add(a, c, 150, false)
	add(c, b, 200, false) // timestamp tie with a->b@200
	add(b, a, 400, false)
	ds.Reindex()
	return ds, a, b, c
}

func TestIncomingOfWindowBoundaries(t *testing.T) {
	ds, a, b, c := indexFixture(t)
	_ = c
	// [from, to) is half-open: a tx at exactly `to` is excluded, at `from`
	// included.
	if got := len(ds.IncomingOf(b, 100, 200)); got != 1 {
		t.Errorf("[100,200) = %d txs, want 1", got)
	}
	if got := len(ds.IncomingOf(b, 100, 201)); got != 3 {
		t.Errorf("[100,201) = %d txs, want 3 (failed tx excluded)", got)
	}
	if got := len(ds.IncomingOf(b, 0, 100_000)); got != 3 {
		t.Errorf("full window = %d txs, want 3", got)
	}
	if got := len(ds.IncomingOf(b, 500, 600)); got != 0 {
		t.Errorf("empty window = %d txs", got)
	}
	if got := len(ds.IncomingOf(a, 400, 401)); got != 1 {
		t.Errorf("b->a at 400 = %d txs, want 1", got)
	}
	// Unknown address: no panic, empty result.
	if got := len(ds.IncomingOf(ethtypes.DeriveAddress("idx-nobody"), 0, 100_000)); got != 0 {
		t.Errorf("unknown addr = %d txs", got)
	}
}

func TestIncomingOfMatchesLinearScan(t *testing.T) {
	ds, _, b, _ := indexFixture(t)
	for from := int64(0); from <= 500; from += 50 {
		for to := from; to <= 500; to += 50 {
			var want int
			for _, tx := range ds.Txs {
				if tx.To == b && tx.Timestamp >= from && tx.Timestamp < to && !tx.Failed {
					want++
				}
			}
			if got := len(ds.IncomingOf(b, from, to)); got != want {
				t.Fatalf("IncomingOf(b, %d, %d) = %d, linear scan says %d", from, to, got, want)
			}
		}
	}
}

func TestOutgoingTo(t *testing.T) {
	ds, a, b, c := indexFixture(t)
	ab := ds.OutgoingTo(a, b)
	if len(ab) != 2 {
		t.Fatalf("a->b = %d txs, want 2 (failed excluded)", len(ab))
	}
	if ab[0].Timestamp != 100 || ab[1].Timestamp != 200 {
		t.Errorf("a->b not in time order: %d, %d", ab[0].Timestamp, ab[1].Timestamp)
	}
	if got := len(ds.OutgoingTo(a, c)); got != 1 {
		t.Errorf("a->c = %d txs, want 1", got)
	}
	if got := len(ds.OutgoingTo(c, a)); got != 0 {
		t.Errorf("c->a = %d txs, want 0", got)
	}
}

func TestTxByHash(t *testing.T) {
	ds, _, _, _ := indexFixture(t)
	for _, tx := range ds.Txs {
		if got := ds.TxByHash(tx.Hash); got != tx {
			t.Fatalf("TxByHash(%s) = %v, want %v", tx.Hash, got, tx)
		}
	}
	if got := ds.TxByHash(ethtypes.HashData([]byte("missing"))); got != nil {
		t.Errorf("missing hash = %v, want nil", got)
	}
}

func TestValueEthCachedMatchesParse(t *testing.T) {
	tx := &Tx{ValueWei: "1234500000000000000"}
	uncached := tx.ValueEth() // no Reindex: parse path
	ds := New(0, 1000)
	ds.Txs = append(ds.Txs, tx)
	ds.Reindex()
	if cached := tx.ValueEth(); cached != uncached {
		t.Errorf("cached %v != parsed %v", cached, uncached)
	}
	if tx.ValueEth() != 1.2345 {
		t.Errorf("ValueEth = %v, want 1.2345", tx.ValueEth())
	}
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	ds1, _, _, _ := indexFixture(t)
	ds2, _, _, _ := indexFixture(t)
	fp1 := ds1.Fingerprint()
	if fp2 := ds2.Fingerprint(); fp2 != fp1 {
		t.Fatalf("identical datasets fingerprint differently: %x vs %x", fp1, fp2)
	}
	if again := ds1.Fingerprint(); again != fp1 {
		t.Fatalf("fingerprint not idempotent: %x vs %x", fp1, again)
	}
	// Reads must not perturb it.
	for _, tx := range ds1.Txs {
		_ = tx.ValueEth()
	}
	ds1.IncomingOf(ds1.Txs[0].To, 0, 100_000)
	if got := ds1.Fingerprint(); got != fp1 {
		t.Fatalf("read-only access changed fingerprint")
	}
	// A single mutated field must change it.
	ds2.Txs[0].Timestamp++
	if got := ds2.Fingerprint(); got == fp1 {
		t.Fatal("mutation not detected")
	}
}

// edgeFixture holds rows a hostile snapshot can decode to: a hash that
// appears twice (the later row in sorted order must win TxByHash), a
// self-transfer, the zero address, and an address whose only
// transaction failed.
func edgeFixture(t testing.TB) *Dataset {
	t.Helper()
	ds := New(0, 1000)
	a := ethtypes.DeriveAddress("idx-edge-a")
	b := ethtypes.DeriveAddress("idx-edge-b")
	c := ethtypes.DeriveAddress("idx-edge-c")
	var zero ethtypes.Address
	dup := ethtypes.HashData([]byte("idx-edge-dup"))
	hash := func(s string) ethtypes.Hash { return ethtypes.HashData([]byte("idx-edge-" + s)) }
	ds.Txs = []*Tx{
		{Hash: dup, Timestamp: 300, From: a, To: b, ValueWei: "2"},
		{Hash: dup, Timestamp: 100, From: b, To: a, ValueWei: "1"},
		{Hash: hash("self"), Timestamp: 200, From: a, To: a, ValueWei: "3"},
		{Hash: hash("zero"), Timestamp: 200, From: zero, To: b, ValueWei: "4"},
		{Hash: hash("failed"), Timestamp: 250, From: c, To: zero, ValueWei: "5", Failed: true},
	}
	ds.Reindex()
	if got := ds.TxByHash(dup); got == nil || got.Timestamp != 300 {
		t.Fatalf("TxByHash(dup) = %+v, want the row at 300, last in sorted order", got)
	}
	return ds
}

// TestIndexesMatchLinearScan holds every accessor Reindex backs to a
// linear scan of ds.Txs, for every address the transactions name.
func TestIndexesMatchLinearScan(t *testing.T) {
	fixture, _, _, _ := indexFixture(t)
	for _, tc := range []struct {
		name string
		ds   *Dataset
	}{
		{"world", sharedDataset(t)},
		{"fixture", fixture},
		{"edges", edgeFixture(t)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkIndexesMatchScan(t, tc.ds) })
	}
}

func checkIndexesMatchScan(t *testing.T, ds *Dataset) {
	t.Helper()
	var addrs []ethtypes.Address
	named := map[ethtypes.Address]bool{}
	in := map[ethtypes.Address][]*Tx{}
	out := map[[2]ethtypes.Address][]*Tx{}
	recipients := map[ethtypes.Address][]ethtypes.Address{}
	last := map[ethtypes.Hash]*Tx{}
	for _, tx := range ds.Txs {
		for _, a := range []ethtypes.Address{tx.From, tx.To} {
			if !named[a] {
				named[a] = true
				addrs = append(addrs, a)
			}
		}
		last[tx.Hash] = tx
		if tx.Failed {
			continue
		}
		in[tx.To] = append(in[tx.To], tx)
		pair := [2]ethtypes.Address{tx.From, tx.To}
		if out[pair] == nil {
			recipients[tx.From] = append(recipients[tx.From], tx.To)
		}
		out[pair] = append(out[pair], tx)
	}
	nobody := ethtypes.DeriveAddress("idx-nobody")
	if named[nobody] {
		t.Fatal("the stranger address appears in the dataset")
	}

	same := func(what string, got, want []*Tx) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s = %d txs, linear scan says %d (or another order)", what, len(got), len(want))
		}
	}
	for _, a := range append(addrs, nobody) {
		want := in[a]
		same(fmt.Sprintf("IncomingAll(%s)", a), ds.IncomingAll(a), want)
		for _, w := range incomingWindows(ds, want) {
			var inWindow []*Tx
			for _, tx := range want {
				if tx.Timestamp >= w[0] && tx.Timestamp < w[1] {
					inWindow = append(inWindow, tx)
				}
			}
			same(fmt.Sprintf("IncomingOf(%s, %d, %d)", a, w[0], w[1]), ds.IncomingOf(a, w[0], w[1]), inWindow)
		}
		for _, r := range append(recipients[a], nobody) {
			same(fmt.Sprintf("OutgoingTo(%s, %s)", a, r), ds.OutgoingTo(a, r), out[[2]ethtypes.Address{a, r}])
		}
	}
	for _, tx := range ds.Txs {
		if got := ds.TxByHash(tx.Hash); got != last[tx.Hash] {
			t.Fatalf("TxByHash(%s) = %p, want the last row with that hash, %p", tx.Hash, got, last[tx.Hash])
		}
	}
	if got := ds.TxByHash(ethtypes.HashData([]byte("idx-missing"))); got != nil {
		t.Fatalf("missing hash = %+v, want nil", got)
	}
}

// incomingWindows returns [from, to) windows around up to 32 of the
// timestamps in txs, spread evenly: empty, inverted and one-second
// windows on each, the prefix ending at it and the suffix starting at
// it; plus the whole observation window and windows before the first
// and after the last transaction.
func incomingWindows(ds *Dataset, txs []*Tx) [][2]int64 {
	ws := [][2]int64{{ds.Start, ds.End + 1}, {math.MinInt64, math.MaxInt64}}
	if len(txs) == 0 {
		return ws
	}
	first, end := txs[0].Timestamp, txs[len(txs)-1].Timestamp+1
	ws = append(ws, [2]int64{first - 10, first}, [2]int64{end, end + 10})
	for i := 0; i < len(txs); i += max(1, len(txs)/32) {
		ts := txs[i].Timestamp
		ws = append(ws, [2]int64{ts, ts}, [2]int64{ts + 1, ts}, [2]int64{ts, ts + 1},
			[2]int64{first, ts}, [2]int64{ts, end})
	}
	return ws
}

// Appending to a run an accessor returned must reallocate, never write
// into the run stored after it in the shared slab.
func TestIndexRunsDoNotAlias(t *testing.T) {
	ds, a, b, c := indexFixture(t)
	addrs := []ethtypes.Address{a, b, c}
	runs := func() [][]*Tx {
		var all [][]*Tx
		for _, x := range addrs {
			all = append(all, slices.Clone(ds.IncomingAll(x)))
			for _, y := range addrs {
				all = append(all, slices.Clone(ds.OutgoingTo(x, y)))
			}
		}
		return all
	}
	before := runs()
	extra := &Tx{}
	for _, x := range addrs {
		grown := [][]*Tx{append(ds.IncomingAll(x), extra), append(ds.IncomingOf(x, 100, 200), extra)}
		for _, y := range addrs {
			grown = append(grown, append(ds.OutgoingTo(x, y), extra))
		}
		for _, g := range grown {
			if g[len(g)-1] != extra {
				t.Fatal("append lost the appended element")
			}
		}
	}
	after := runs()
	for i := range before {
		if !slices.Equal(before[i], after[i]) {
			t.Fatalf("run %d changed after appends to returned slices: %d txs, was %d", i, len(after[i]), len(before[i]))
		}
	}
}

// Reindex sizes every index in a counting pass, so its allocations must
// not grow with the transaction count.
func TestReindexAllocationsSublinear(t *testing.T) {
	ds := sharedDataset(t)
	allocs := testing.AllocsPerRun(3, ds.Reindex)
	if limit := float64(len(ds.Txs)) / 20; allocs >= limit {
		t.Fatalf("Reindex made %.0f allocations over %d txs, want fewer than %.0f", allocs, len(ds.Txs), limit)
	}
	t.Logf("Reindex: %.0f allocations over %d txs", allocs, len(ds.Txs))
}
