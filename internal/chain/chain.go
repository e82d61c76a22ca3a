// Package chain implements the simulated Ethereum blockchain that the rest
// of the system runs on: accounts with balances and nonces, value-transfer
// transactions, contract calls that emit event logs, and block production
// with deterministic timestamps. The ENS contract suite (internal/ens)
// executes on top of it, and the subgraph and Etherscan substrates index
// what it records — mirroring how the paper's data sources sit on top of
// mainnet.
package chain

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ensdropcatch/internal/ethtypes"
)

// BlockInterval is the simulated seconds-per-block (mainnet post-merge).
const BlockInterval = 12

// Common errors returned by chain operations.
var (
	ErrInsufficientBalance = errors.New("chain: insufficient balance")
	ErrTimeRegression      = errors.New("chain: timestamp before chain head")
)

// Transaction is a recorded on-chain transaction. Fields mirror what the
// Etherscan API exposes (the paper crawls sender, receiver, value, hash,
// and timestamp).
type Transaction struct {
	Hash        ethtypes.Hash
	BlockNumber uint64
	Timestamp   int64
	From        ethtypes.Address
	To          ethtypes.Address
	Value       ethtypes.Wei
	Input       []byte // calldata; nil for plain transfers
	Method      string // decoded method name for contract calls ("" for transfers)
	Failed      bool
}

// Log is an emitted contract event, the unit the subgraph indexes.
type Log struct {
	Address     ethtypes.Address // emitting contract
	Event       string           // decoded event name
	Topics      []ethtypes.Hash
	Data        map[string]string // decoded fields (name -> string form)
	BlockNumber uint64
	TxHash      ethtypes.Hash
	Timestamp   int64
	Index       int // global log index
}

// Receipt reports the outcome of an applied transaction.
type Receipt struct {
	Tx   *Transaction
	Logs []*Log
	Err  error // contract revert reason; nil on success
}

// TxContext is handed to contract code during execution. It lets the
// contract emit logs and move value that was attached to the call.
type TxContext struct {
	chain *Chain
	tx    *Transaction
	logs  []*Log
	// moved tracks balance effects applied so far so a revert can undo them.
	moved []balanceDelta
}

type balanceDelta struct {
	addr ethtypes.Address
	wei  ethtypes.Wei
	add  bool
}

// Emit records a contract event.
func (ctx *TxContext) Emit(event string, topics []ethtypes.Hash, data map[string]string) {
	ctx.logs = append(ctx.logs, &Log{
		Address:     ctx.tx.To,
		Event:       event,
		Topics:      topics,
		Data:        data,
		BlockNumber: ctx.tx.BlockNumber,
		TxHash:      ctx.tx.Hash,
		Timestamp:   ctx.tx.Timestamp,
	})
}

// TransferFromContract sends wei held by the called contract to dst (e.g. a
// refund of overpayment). It fails if the contract balance is insufficient.
func (ctx *TxContext) TransferFromContract(dst ethtypes.Address, amount ethtypes.Wei) error {
	c := ctx.chain
	bal := c.balances[ctx.tx.To]
	if bal.Cmp(amount) < 0 {
		return ErrInsufficientBalance
	}
	c.balances[ctx.tx.To] = bal.Sub(amount)
	c.balances[dst] = c.balances[dst].Add(amount)
	ctx.moved = append(ctx.moved,
		balanceDelta{ctx.tx.To, amount, true},
		balanceDelta{dst, amount, false})
	return nil
}

// Chain is the in-memory simulated blockchain. All methods are safe for
// concurrent use.
type Chain struct {
	mu         sync.RWMutex
	genesis    int64
	headTime   int64
	txs        []*Transaction
	txsByAddr  map[ethtypes.Address][]*Transaction
	logs       []*Log
	logsByAddr map[ethtypes.Address][]*Log
	balances   map[ethtypes.Address]ethtypes.Wei
	nonces     map[ethtypes.Address]uint64
}

// New creates a chain whose genesis block carries the given unix timestamp.
func New(genesisTime int64) *Chain {
	return &Chain{
		genesis:    genesisTime,
		headTime:   genesisTime,
		txsByAddr:  make(map[ethtypes.Address][]*Transaction),
		logsByAddr: make(map[ethtypes.Address][]*Log),
		balances:   make(map[ethtypes.Address]ethtypes.Wei),
		nonces:     make(map[ethtypes.Address]uint64),
	}
}

// Mint credits amount to addr out of thin air (the simulation faucet;
// stands in for mining rewards and bridged deposits).
func (c *Chain) Mint(addr ethtypes.Address, amount ethtypes.Wei) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.balances[addr] = c.balances[addr].Add(amount)
}

// BalanceOf returns addr's current balance.
func (c *Chain) BalanceOf(addr ethtypes.Address) ethtypes.Wei {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.balances[addr]
}

// Transfer applies a plain value transfer at timestamp ts.
func (c *Chain) Transfer(ts int64, from, to ethtypes.Address, value ethtypes.Wei) (*Receipt, error) {
	return c.Apply(ts, from, to, value, nil, "", nil)
}

// Apply executes a transaction at timestamp ts. If action is non-nil it
// runs as contract code with a TxContext; returning an error reverts the
// value transfer and discards emitted logs, but the failed transaction is
// still recorded on-chain (as on Ethereum). Timestamps must be
// non-decreasing across calls.
func (c *Chain) Apply(ts int64, from, to ethtypes.Address, value ethtypes.Wei, input []byte, method string, action func(*TxContext) error) (*Receipt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if ts < c.headTime {
		return nil, fmt.Errorf("%w: %d < %d", ErrTimeRegression, ts, c.headTime)
	}
	if c.balances[from].Cmp(value) < 0 {
		return nil, fmt.Errorf("%w: %s has %s, needs %s", ErrInsufficientBalance, from, c.balances[from], value)
	}

	nonce := c.nonces[from]
	c.nonces[from] = nonce + 1
	c.headTime = ts

	tx := &Transaction{
		Hash:        txHash(from, nonce),
		BlockNumber: c.blockNumberAtLocked(ts),
		Timestamp:   ts,
		From:        from,
		To:          to,
		Value:       value,
		Input:       input,
		Method:      method,
	}

	// Move the attached value.
	c.balances[from] = c.balances[from].Sub(value)
	c.balances[to] = c.balances[to].Add(value)

	ctx := &TxContext{chain: c, tx: tx}
	var execErr error
	if action != nil {
		execErr = action(ctx)
	}
	if execErr != nil {
		// Revert: undo value transfer and any contract-initiated moves.
		for i := len(ctx.moved) - 1; i >= 0; i-- {
			d := ctx.moved[i]
			if d.add {
				c.balances[d.addr] = c.balances[d.addr].Add(d.wei)
			} else {
				c.balances[d.addr] = c.balances[d.addr].Sub(d.wei)
			}
		}
		c.balances[to] = c.balances[to].Sub(value)
		c.balances[from] = c.balances[from].Add(value)
		tx.Failed = true
		ctx.logs = nil
	}

	c.txs = append(c.txs, tx)
	c.txsByAddr[from] = append(c.txsByAddr[from], tx)
	if to != from {
		c.txsByAddr[to] = append(c.txsByAddr[to], tx)
	}
	for _, l := range ctx.logs {
		l.Index = len(c.logs)
		c.logs = append(c.logs, l)
		c.logsByAddr[l.Address] = append(c.logsByAddr[l.Address], l)
	}
	return &Receipt{Tx: tx, Logs: ctx.logs, Err: execErr}, nil
}

func (c *Chain) blockNumberAtLocked(ts int64) uint64 {
	if ts < c.genesis {
		return 0
	}
	return uint64((ts-c.genesis)/BlockInterval) + 1
}

func txHash(from ethtypes.Address, nonce uint64) ethtypes.Hash {
	buf := make([]byte, len(from)+8)
	copy(buf, from[:])
	for i := 0; i < 8; i++ {
		buf[len(from)+i] = byte(nonce >> (8 * i))
	}
	return ethtypes.HashData(buf)
}

// TxCount returns the total number of recorded transactions.
func (c *Chain) TxCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.txs)
}

// TxsByAddress returns all transactions where addr is sender or receiver,
// in chain order. The returned slice is a copy.
func (c *Chain) TxsByAddress(addr ethtypes.Address) []*Transaction {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Transaction(nil), c.txsByAddr[addr]...)
}

// Transactions returns every recorded transaction in chain order (copy).
func (c *Chain) Transactions() []*Transaction {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Transaction(nil), c.txs...)
}

// AddressesWithActivity returns every address that has sent or received at
// least one transaction, in deterministic (sorted) order.
func (c *Chain) AddressesWithActivity() []ethtypes.Address {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ethtypes.Address, 0, len(c.txsByAddr))
	for a := range c.txsByAddr {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < ethtypes.AddressLength; k++ {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}
