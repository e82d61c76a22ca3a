package chain

import "ensdropcatch/internal/ethtypes"

// LogFilter selects event logs, mirroring eth_getLogs semantics: all
// criteria are conjunctive, zero values match everything.
type LogFilter struct {
	// FromBlock / ToBlock bound the block range inclusively; ToBlock 0
	// means "latest".
	FromBlock, ToBlock uint64
	// Address restricts to logs emitted by this contract.
	Address ethtypes.Address
	// Events restricts to these decoded event names.
	Events []string
	// Topic0 restricts to logs whose first topic equals this hash.
	Topic0 ethtypes.Hash
}

func (f *LogFilter) matches(l *Log) bool {
	if f.FromBlock != 0 && l.BlockNumber < f.FromBlock {
		return false
	}
	if f.ToBlock != 0 && l.BlockNumber > f.ToBlock {
		return false
	}
	if !f.Address.IsZero() && l.Address != f.Address {
		return false
	}
	if !f.Topic0.IsZero() && (len(l.Topics) == 0 || l.Topics[0] != f.Topic0) {
		return false
	}
	if len(f.Events) > 0 {
		ok := false
		for _, e := range f.Events {
			if l.Event == e {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// FilterLogs returns the logs matching the filter in chain order (copy).
// Indexers use it to fold specific event streams without walking unrelated
// logs.
func (c *Chain) FilterLogs(f LogFilter) []*Log {
	c.mu.RLock()
	defer c.mu.RUnlock()
	src := c.logs
	if !f.Address.IsZero() {
		src = c.logsByAddr[f.Address]
	}
	var out []*Log
	for _, l := range src {
		if f.matches(l) {
			out = append(out, l)
		}
	}
	return out
}

// HeadBlock returns the block number of the most recent transaction.
func (c *Chain) HeadBlock() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blockNumberAtLocked(c.headTime)
}
