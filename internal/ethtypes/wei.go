package ethtypes

import (
	"fmt"
	"math/big"
	"strconv"
)

// WeiPerEther is the number of wei in one ether (10^18).
var WeiPerEther = new(big.Int).Exp(big.NewInt(10), big.NewInt(18), nil)

var weiPerGwei = big.NewInt(1_000_000_000)

// Wei is an exact, non-negative amount of wei. The zero value is zero wei
// and is ready to use. Wei values are immutable: arithmetic returns new
// values and never aliases operand storage.
type Wei struct {
	v *big.Int // nil means zero
}

// NewWei returns an amount of v wei. It panics if v is negative, because
// account balances and transfer values are never negative on-chain.
func NewWei(v int64) Wei {
	if v < 0 {
		panic(fmt.Sprintf("ethtypes: negative wei amount %d", v))
	}
	return Wei{big.NewInt(v)}
}

// WeiFromBig returns an amount equal to v, copying it. It panics if v is
// negative.
func WeiFromBig(v *big.Int) Wei {
	if v.Sign() < 0 {
		panic("ethtypes: negative wei amount")
	}
	return Wei{new(big.Int).Set(v)}
}

// Ether returns n whole ether as wei.
func Ether(n int64) Wei {
	if n < 0 {
		panic(fmt.Sprintf("ethtypes: negative ether amount %d", n))
	}
	return Wei{new(big.Int).Mul(big.NewInt(n), WeiPerEther)}
}

// Gwei returns n gwei (10^9 wei) as wei.
func Gwei(n int64) Wei {
	if n < 0 {
		panic(fmt.Sprintf("ethtypes: negative gwei amount %d", n))
	}
	return Wei{new(big.Int).Mul(big.NewInt(n), weiPerGwei)}
}

// EtherFloat converts a float amount of ether to wei, rounding to the
// nearest wei. Useful for synthetic workloads expressed in ETH.
func EtherFloat(eth float64) Wei {
	if eth < 0 {
		panic("ethtypes: negative ether amount")
	}
	f := new(big.Float).SetFloat64(eth)
	f.Mul(f, new(big.Float).SetInt(WeiPerEther))
	i, _ := f.Int(nil)
	return Wei{i}
}

func (w Wei) big() *big.Int {
	if w.v == nil {
		return new(big.Int)
	}
	return w.v
}

// BigInt returns a copy of the amount as a big.Int.
func (w Wei) BigInt() *big.Int { return new(big.Int).Set(w.big()) }

// Add returns w + o.
func (w Wei) Add(o Wei) Wei { return Wei{new(big.Int).Add(w.big(), o.big())} }

// Sub returns w - o. It panics if the result would be negative.
func (w Wei) Sub(o Wei) Wei {
	r := new(big.Int).Sub(w.big(), o.big())
	if r.Sign() < 0 {
		panic("ethtypes: wei underflow")
	}
	return Wei{r}
}

// MulInt returns w * n for non-negative n.
func (w Wei) MulInt(n int64) Wei {
	if n < 0 {
		panic("ethtypes: negative multiplier")
	}
	return Wei{new(big.Int).Mul(w.big(), big.NewInt(n))}
}

// DivInt returns w / n (truncating) for positive n.
func (w Wei) DivInt(n int64) Wei {
	if n <= 0 {
		panic("ethtypes: non-positive divisor")
	}
	return Wei{new(big.Int).Div(w.big(), big.NewInt(n))}
}

// Cmp compares w and o, returning -1, 0, or +1.
func (w Wei) Cmp(o Wei) int { return w.big().Cmp(o.big()) }

// IsZero reports whether the amount is zero.
func (w Wei) IsZero() bool { return w.big().Sign() == 0 }

// Ether returns the amount as a float64 number of ether. The conversion is
// lossy for very large amounts, which is acceptable for analysis (the paper
// converts on-chain values to USD floats the same way).
func (w Wei) Ether() float64 {
	f := new(big.Float).SetInt(w.big())
	f.Quo(f, new(big.Float).SetInt(WeiPerEther))
	out, _ := f.Float64()
	return out
}

// String renders the amount in wei followed by the unit, e.g. "1500 wei".
func (w Wei) String() string { return w.big().String() + " wei" }

// AppendDecimal appends the amount as a decimal wei count, String
// without the unit, to dst. It does not allocate when the amount fits
// in a uint64.
func (w Wei) AppendDecimal(dst []byte) []byte {
	switch {
	case w.v == nil:
		return append(dst, '0')
	case w.v.IsUint64():
		return strconv.AppendUint(dst, w.v.Uint64(), 10)
	default:
		return w.v.Append(dst, 10)
	}
}

// MarshalText implements encoding.TextMarshaler as a decimal wei count.
func (w Wei) MarshalText() ([]byte, error) {
	return []byte(w.big().String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (w *Wei) UnmarshalText(text []byte) error {
	i, ok := new(big.Int).SetString(string(text), 10)
	if !ok {
		return fmt.Errorf("ethtypes: invalid wei amount %q", text)
	}
	if i.Sign() < 0 {
		return fmt.Errorf("ethtypes: negative wei amount %q", text)
	}
	w.v = i
	return nil
}
