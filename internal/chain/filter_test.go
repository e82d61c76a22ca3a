package chain

import (
	"testing"

	"ensdropcatch/internal/ethtypes"
)

// buildLogChain creates a chain with events from two contracts across
// several blocks.
func buildLogChain(t *testing.T) (*Chain, ethtypes.Address, ethtypes.Address) {
	t.Helper()
	c := New(genesis)
	user := ethtypes.DeriveAddress("f-user")
	c.Mint(user, ethtypes.Ether(100))
	contractA := ethtypes.DeriveAddress("f-contract-a")
	contractB := ethtypes.DeriveAddress("f-contract-b")
	topic := ethtypes.HashData([]byte("special"))

	for i := 0; i < 10; i++ {
		target := contractA
		event := "Ping"
		if i%2 == 1 {
			target = contractB
			event = "Pong"
		}
		ts := genesis + int64(i)*120 // a new block every 10 blocks' worth
		_, err := c.Apply(ts, user, target, ethtypes.Wei{}, nil, "emit", func(ctx *TxContext) error {
			var topics []ethtypes.Hash
			if i == 4 {
				topics = []ethtypes.Hash{topic}
			}
			ctx.Emit(event, topics, map[string]string{"i": string(rune('0' + i))})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return c, contractA, contractB
}

func TestFilterLogsByAddressAndEvent(t *testing.T) {
	c, a, b := buildLogChain(t)
	if got := len(c.FilterLogs(LogFilter{Address: a})); got != 5 {
		t.Errorf("contract A logs = %d, want 5", got)
	}
	if got := len(c.FilterLogs(LogFilter{Address: b, Events: []string{"Pong"}})); got != 5 {
		t.Errorf("B/Pong logs = %d, want 5", got)
	}
	if got := len(c.FilterLogs(LogFilter{Address: b, Events: []string{"Ping"}})); got != 0 {
		t.Errorf("B/Ping logs = %d, want 0", got)
	}
	if got := len(c.FilterLogs(LogFilter{})); got != 10 {
		t.Errorf("unfiltered logs = %d, want 10", got)
	}
}

func TestFilterLogsByBlockRange(t *testing.T) {
	c, _, _ := buildLogChain(t)
	all := c.FilterLogs(LogFilter{})
	mid := all[5].BlockNumber
	upper := c.FilterLogs(LogFilter{FromBlock: mid})
	for _, l := range upper {
		if l.BlockNumber < mid {
			t.Fatal("FromBlock violated")
		}
	}
	lower := c.FilterLogs(LogFilter{ToBlock: mid - 1})
	if len(upper)+len(lower) != len(all) {
		t.Errorf("range split %d + %d != %d", len(upper), len(lower), len(all))
	}
	// The paged eth_getLogs pattern: consecutive windows see each log once.
	seen := 0
	from := uint64(0)
	for {
		batch := c.FilterLogs(LogFilter{FromBlock: from, ToBlock: from + 20})
		seen += len(batch)
		if from+20 >= c.HeadBlock() {
			break
		}
		from += 21
	}
	if seen != len(all) {
		t.Errorf("windowed walk saw %d logs, want %d", seen, len(all))
	}
}

func TestFilterLogsByTopic(t *testing.T) {
	c, _, _ := buildLogChain(t)
	topic := ethtypes.HashData([]byte("special"))
	got := c.FilterLogs(LogFilter{Topic0: topic})
	if len(got) != 1 {
		t.Fatalf("topic logs = %d, want 1", len(got))
	}
	if got[0].Topics[0] != topic {
		t.Error("wrong log matched")
	}
}
