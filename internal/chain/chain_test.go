package chain

import (
	"errors"
	"testing"
	"testing/quick"

	"ensdropcatch/internal/ethtypes"
)

const genesis = 1_500_000_000

func newFunded(t *testing.T, labels ...string) (*Chain, []ethtypes.Address) {
	t.Helper()
	c := New(genesis)
	addrs := make([]ethtypes.Address, len(labels))
	for i, l := range labels {
		addrs[i] = ethtypes.DeriveAddress(l)
		c.Mint(addrs[i], ethtypes.Ether(100))
	}
	return c, addrs
}

func TestTransferMovesBalance(t *testing.T) {
	c, a := newFunded(t, "alice", "bob")
	rcpt, err := c.Transfer(genesis+12, a[0], a[1], ethtypes.Ether(30))
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Tx.Failed {
		t.Fatal("transfer marked failed")
	}
	if got := c.BalanceOf(a[0]); got.Cmp(ethtypes.Ether(70)) != 0 {
		t.Errorf("sender balance %s", got)
	}
	if got := c.BalanceOf(a[1]); got.Cmp(ethtypes.Ether(130)) != 0 {
		t.Errorf("receiver balance %s", got)
	}
}

func TestTransferInsufficientBalance(t *testing.T) {
	c, a := newFunded(t, "alice", "bob")
	_, err := c.Transfer(genesis+12, a[0], a[1], ethtypes.Ether(1000))
	if !errors.Is(err, ErrInsufficientBalance) {
		t.Errorf("err = %v, want ErrInsufficientBalance", err)
	}
	if c.TxCount() != 0 {
		t.Error("failed submission recorded a transaction")
	}
}

func TestTimeMustNotRegress(t *testing.T) {
	c, a := newFunded(t, "alice", "bob")
	if _, err := c.Transfer(genesis+100, a[0], a[1], ethtypes.NewWei(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Transfer(genesis+50, a[0], a[1], ethtypes.NewWei(1)); !errors.Is(err, ErrTimeRegression) {
		t.Errorf("err = %v, want ErrTimeRegression", err)
	}
	// Equal timestamps are fine (same block).
	if _, err := c.Transfer(genesis+100, a[0], a[1], ethtypes.NewWei(1)); err != nil {
		t.Errorf("equal timestamp rejected: %v", err)
	}
}

func TestBlockNumbering(t *testing.T) {
	c, a := newFunded(t, "alice", "bob")
	for _, tc := range []struct {
		ts   int64
		want uint64
	}{
		{genesis, 1},
		{genesis + 11, 1},
		{genesis + 12, 2},
	} {
		rcpt, err := c.Transfer(tc.ts, a[0], a[1], ethtypes.NewWei(1))
		if err != nil {
			t.Fatal(err)
		}
		if bn := rcpt.Tx.BlockNumber; bn != tc.want {
			t.Errorf("block at genesis%+d = %d, want %d", tc.ts-genesis, bn, tc.want)
		}
	}
}

func TestContractCallEmitsLogs(t *testing.T) {
	c, a := newFunded(t, "alice")
	contract := ethtypes.DeriveAddress("registrar-contract")
	rcpt, err := c.Apply(genesis+24, a[0], contract, ethtypes.Ether(1), []byte{0x01}, "register",
		func(ctx *TxContext) error {
			ctx.Emit("NameRegistered", nil, map[string]string{"name": "gold"})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(rcpt.Logs) != 1 || rcpt.Logs[0].Event != "NameRegistered" {
		t.Fatalf("logs = %+v", rcpt.Logs)
	}
	if rcpt.Logs[0].Data["name"] != "gold" {
		t.Error("log data lost")
	}
	if got := c.FilterLogs(LogFilter{Events: []string{"NameRegistered"}}); len(got) != 1 {
		t.Errorf("FilterLogs by event returned %d", len(got))
	}
	if got := c.FilterLogs(LogFilter{Address: contract}); len(got) != 1 {
		t.Errorf("FilterLogs by address returned %d", len(got))
	}
	if bal := c.BalanceOf(contract); bal.Cmp(ethtypes.Ether(1)) != 0 {
		t.Errorf("contract balance %s", bal)
	}
}

func TestRevertRestoresBalancesAndDropsLogs(t *testing.T) {
	c, a := newFunded(t, "alice", "beneficiary")
	contract := ethtypes.DeriveAddress("reverting-contract")
	boom := errors.New("boom")
	rcpt, err := c.Apply(genesis+24, a[0], contract, ethtypes.Ether(5), nil, "register",
		func(ctx *TxContext) error {
			ctx.Emit("ShouldVanish", nil, nil)
			if err := ctx.TransferFromContract(a[1], ethtypes.Ether(2)); err != nil {
				return err
			}
			return boom
		})
	if err != nil {
		t.Fatal(err)
	}
	if !rcpt.Tx.Failed || !errors.Is(rcpt.Err, boom) {
		t.Fatalf("receipt = %+v", rcpt)
	}
	if len(rcpt.Logs) != 0 {
		t.Error("reverted call kept logs")
	}
	if bal := c.BalanceOf(a[0]); bal.Cmp(ethtypes.Ether(100)) != 0 {
		t.Errorf("sender balance %s after revert", bal)
	}
	if bal := c.BalanceOf(a[1]); bal.Cmp(ethtypes.Ether(100)) != 0 {
		t.Errorf("beneficiary balance %s after revert", bal)
	}
	if bal := c.BalanceOf(contract); !bal.IsZero() {
		t.Errorf("contract balance %s after revert", bal)
	}
	// The failed transaction is still on-chain, like Ethereum.
	if c.TxCount() != 1 {
		t.Error("failed tx not recorded")
	}
}

func TestRefundFromContract(t *testing.T) {
	c, a := newFunded(t, "alice")
	contract := ethtypes.DeriveAddress("refunding-contract")
	_, err := c.Apply(genesis+24, a[0], contract, ethtypes.Ether(10), nil, "register",
		func(ctx *TxContext) error {
			// Keep 3 ETH, refund 7.
			return ctx.TransferFromContract(a[0], ethtypes.Ether(7))
		})
	if err != nil {
		t.Fatal(err)
	}
	if bal := c.BalanceOf(a[0]); bal.Cmp(ethtypes.Ether(97)) != 0 {
		t.Errorf("sender balance %s, want 97 ETH", bal)
	}
	if bal := c.BalanceOf(contract); bal.Cmp(ethtypes.Ether(3)) != 0 {
		t.Errorf("contract balance %s, want 3 ETH", bal)
	}
}

func TestTxIndexes(t *testing.T) {
	c, a := newFunded(t, "alice", "bob", "carol")
	c.Transfer(genesis+12, a[0], a[1], ethtypes.Ether(1))
	c.Transfer(genesis+24, a[1], a[2], ethtypes.Ether(1))
	c.Transfer(genesis+36, a[0], a[2], ethtypes.Ether(1))

	if got := len(c.TxsByAddress(a[0])); got != 2 {
		t.Errorf("alice txs = %d, want 2", got)
	}
	if got := len(c.TxsByAddress(a[1])); got != 2 {
		t.Errorf("bob txs = %d, want 2", got)
	}
	if got := len(c.TxsByAddress(a[2])); got != 2 {
		t.Errorf("carol txs = %d, want 2", got)
	}
	if got := c.TxCount(); got != 3 {
		t.Errorf("TxCount = %d", got)
	}
}

func TestSelfTransferNotDoubleIndexed(t *testing.T) {
	c, a := newFunded(t, "alice")
	if _, err := c.Transfer(genesis+12, a[0], a[0], ethtypes.Ether(1)); err != nil {
		t.Fatal(err)
	}
	if got := len(c.TxsByAddress(a[0])); got != 1 {
		t.Errorf("self transfer indexed %d times", got)
	}
	if bal := c.BalanceOf(a[0]); bal.Cmp(ethtypes.Ether(100)) != 0 {
		t.Errorf("self transfer changed balance: %s", bal)
	}
}

func TestUniqueTxHashes(t *testing.T) {
	c, a := newFunded(t, "alice", "bob")
	seen := map[ethtypes.Hash]bool{}
	for i := 0; i < 100; i++ {
		rcpt, err := c.Transfer(genesis+int64(12*(i+1)), a[0], a[1], ethtypes.NewWei(1))
		if err != nil {
			t.Fatal(err)
		}
		if seen[rcpt.Tx.Hash] {
			t.Fatalf("duplicate tx hash at i=%d", i)
		}
		seen[rcpt.Tx.Hash] = true
	}
}

func TestAddressesWithActivitySortedAndComplete(t *testing.T) {
	c, a := newFunded(t, "z-addr", "a-addr", "m-addr")
	c.Transfer(genesis+12, a[0], a[1], ethtypes.Ether(1))
	c.Transfer(genesis+24, a[2], a[0], ethtypes.Ether(1))
	got := c.AddressesWithActivity()
	if len(got) != 3 {
		t.Fatalf("got %d addresses", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !lessAddr(got[i-1], got[i]) {
			t.Error("addresses not sorted")
		}
	}
}

func lessAddr(a, b ethtypes.Address) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

func TestQuickBalanceConservation(t *testing.T) {
	f := func(transfers []uint8) bool {
		c, _ := func() (*Chain, []ethtypes.Address) {
			c := New(genesis)
			for _, l := range []string{"p", "q", "r"} {
				c.Mint(ethtypes.DeriveAddress(l), ethtypes.Ether(10))
			}
			return c, nil
		}()
		addrs := []ethtypes.Address{
			ethtypes.DeriveAddress("p"), ethtypes.DeriveAddress("q"), ethtypes.DeriveAddress("r"),
		}
		ts := int64(genesis)
		for _, b := range transfers {
			from := addrs[int(b)%3]
			to := addrs[int(b/3)%3]
			ts += int64(b%7) * 12
			c.Transfer(ts, from, to, ethtypes.EtherFloat(float64(b%5))) // may fail; fine
		}
		total := ethtypes.Wei{}
		for _, a := range addrs {
			total = total.Add(c.BalanceOf(a))
		}
		return total.Cmp(ethtypes.Ether(30)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTransferAllocations bounds a plain transfer's allocations: its
// Transaction, TxContext and Receipt, the slice and map growth they
// amortize, and no amount on the heap. A Wei backed by *big.Int cost 7
// a call here, four of them the sender's and receiver's new balances.
func TestTransferAllocations(t *testing.T) {
	c, a := newFunded(t, "alloc-from", "alloc-to")
	v := ethtypes.EtherFloat(0.0123)
	ts := int64(genesis)
	transfer := func() {
		ts++
		if _, err := c.Transfer(ts, a[0], a[1], v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		transfer() // grow the chain's slices and maps past their first sizes
	}
	got := testing.AllocsPerRun(1000, transfer)
	t.Logf("%.0f allocs per transfer", got)
	if got > 3 {
		t.Errorf("Transfer allocates %.0f times per call, want at most 3", got)
	}
}
