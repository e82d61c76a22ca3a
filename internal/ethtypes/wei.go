package ethtypes

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"strconv"
)

// Wei is an exact, non-negative amount of wei below 2^128. The zero value
// is zero wei and is ready to use. A Wei holds no pointer: it is two
// machine words, compared with ==, and copying it copies the amount.
//
// 2^128 wei is about 3.4e20 ether, far above any amount the simulated
// chain mints and about 2^41 times the real ether supply (about 2^87
// wei). Arithmetic that would leave [0, 2^128) panics, as a negative
// result always has: only a bug can get there. Parsers, which read
// untrusted input, return an error instead.
type Wei struct {
	lo, hi uint64
}

const weiPerEther = 1_000_000_000_000_000_000

// NewWei returns an amount of v wei. It panics if v is negative, because
// account balances and transfer values are never negative on-chain.
func NewWei(v int64) Wei {
	if v < 0 {
		panic(fmt.Sprintf("ethtypes: negative wei amount %d", v))
	}
	return Wei{lo: uint64(v)}
}

// Ether returns n whole ether as wei.
func Ether(n int64) Wei {
	if n < 0 {
		panic(fmt.Sprintf("ethtypes: negative ether amount %d", n))
	}
	return Wei{lo: uint64(n)}.MulInt(weiPerEther)
}

// Gwei returns n gwei (10^9 wei) as wei.
func Gwei(n int64) Wei {
	if n < 0 {
		panic(fmt.Sprintf("ethtypes: negative gwei amount %d", n))
	}
	return Wei{lo: uint64(n)}.MulInt(1_000_000_000)
}

// EtherFloat converts a float amount of ether to wei: the float64
// product eth*1e18, truncated toward zero. 1e18 is exact in a float64,
// so the product is the exact one rounded once to 53 bits, nearest-even;
// math/big's Float multiply at 53-bit precision rounds the same way,
// and TestEtherFloatMatchesBigFloat holds the two equal. It panics on a
// negative or NaN eth, or when the product reaches 2^128.
func EtherFloat(eth float64) Wei {
	if !(eth >= 0) {
		panic("ethtypes: negative or NaN ether amount")
	}
	const two64 = 1 << 64
	f := eth * weiPerEther
	switch {
	case f < two64:
		return Wei{lo: uint64(f)}
	case f < two64*two64:
		// f >= 2^64 is an integer with at most 53 significant bits, so
		// both halves and their difference are exact.
		hi := uint64(f / two64)
		return Wei{lo: uint64(f - float64(hi)*two64), hi: hi}
	default:
		panic("ethtypes: ether amount overflows 128 bits")
	}
}

// Add returns w + o. It panics if the sum reaches 2^128.
func (w Wei) Add(o Wei) Wei {
	lo, carry := bits.Add64(w.lo, o.lo, 0)
	hi, carry := bits.Add64(w.hi, o.hi, carry)
	if carry != 0 {
		panic("ethtypes: wei overflow")
	}
	return Wei{lo, hi}
}

// Sub returns w - o. It panics if the result would be negative.
func (w Wei) Sub(o Wei) Wei {
	lo, borrow := bits.Sub64(w.lo, o.lo, 0)
	hi, borrow := bits.Sub64(w.hi, o.hi, borrow)
	if borrow != 0 {
		panic("ethtypes: wei underflow")
	}
	return Wei{lo, hi}
}

// MulInt returns w * n for non-negative n. It panics if the product
// reaches 2^128.
func (w Wei) MulInt(n int64) Wei {
	if n < 0 {
		panic("ethtypes: negative multiplier")
	}
	p, overflow := w.mulAdd(uint64(n), 0)
	if overflow {
		panic("ethtypes: wei overflow")
	}
	return p
}

// DivInt returns w / n (truncating) for positive n.
func (w Wei) DivInt(n int64) Wei {
	if n <= 0 {
		panic("ethtypes: non-positive divisor")
	}
	q, _ := w.divMod(uint64(n))
	return q
}

// mulAdd returns w*m + a and whether the exact result reaches 2^128.
func (w Wei) mulAdd(m, a uint64) (Wei, bool) {
	carryLo, lo := bits.Mul64(w.lo, m)
	carryHi, hi := bits.Mul64(w.hi, m)
	lo, c := bits.Add64(lo, a, 0)
	hi, c = bits.Add64(hi, carryLo, c)
	return Wei{lo, hi}, carryHi != 0 || c != 0
}

// divMod returns w / d and w % d for d > 0.
func (w Wei) divMod(d uint64) (Wei, uint64) {
	hi, r := w.hi/d, w.hi%d
	lo, r := bits.Div64(r, w.lo, d)
	return Wei{lo, hi}, r
}

// Cmp compares w and o, returning -1, 0, or +1.
func (w Wei) Cmp(o Wei) int {
	switch {
	case w.hi < o.hi || w.hi == o.hi && w.lo < o.lo:
		return -1
	case w == o:
		return 0
	default:
		return 1
	}
}

// IsZero reports whether the amount is zero.
func (w Wei) IsZero() bool { return w == Wei{} }

// Ether returns the amount as a float64 number of ether. The conversion is
// lossy for very large amounts, which is acceptable for analysis (the paper
// converts on-chain values to USD floats the same way).
func (w Wei) Ether() float64 {
	i := new(big.Int).SetUint64(w.hi)
	i.Lsh(i, 64).Or(i, new(big.Int).SetUint64(w.lo))
	f := new(big.Float).SetInt(i)
	f.Quo(f, new(big.Float).SetUint64(weiPerEther))
	out, _ := f.Float64()
	return out
}

// String renders the amount in wei followed by the unit, e.g. "1500 wei".
func (w Wei) String() string { return w.Decimal() + " wei" }

// Decimal returns the amount as a decimal wei count: String without the
// unit.
func (w Wei) Decimal() string {
	var buf [39]byte // 2^128-1 in decimal
	return string(w.AppendDecimal(buf[:0]))
}

// AppendDecimal appends Decimal to dst. It allocates only when dst
// must grow.
func (w Wei) AppendDecimal(dst []byte) []byte {
	if w.hi == 0 {
		return strconv.AppendUint(dst, w.lo, 10)
	}
	// Peel 19-digit groups off the low end until the rest fits a
	// uint64; w >= 2^64 > 10^19 keeps that rest non-zero.
	var buf [38]byte
	i := len(buf)
	for w.hi != 0 {
		var group uint64
		w, group = w.divMod(1e19)
		for range 19 {
			i--
			buf[i] = byte('0' + group%10)
			group /= 10
		}
	}
	dst = strconv.AppendUint(dst, w.lo, 10)
	return append(dst, buf[i:]...)
}

// Hex returns the amount as a JSON-RPC quantity: 0x and lower-case hex
// digits without leading zeros ("0x0" for zero), the digits of
// big.Int.Text(16).
func (w Wei) Hex() string {
	var buf [34]byte
	b := append(buf[:0], "0x"...)
	if w.hi == 0 {
		return string(strconv.AppendUint(b, w.lo, 16))
	}
	b = strconv.AppendUint(b, w.hi, 16)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[w.lo>>shift&0xf])
	}
	return string(b)
}

// MarshalText implements encoding.TextMarshaler as a decimal wei count.
func (w Wei) MarshalText() ([]byte, error) {
	return w.AppendDecimal(nil), nil
}

// UnmarshalText implements encoding.TextUnmarshaler for a decimal wei
// count: one or more ASCII digits, no sign, below 2^128.
func (w *Wei) UnmarshalText(text []byte) error {
	v, err := parseDigits(string(text), 10)
	if err != nil {
		return fmt.Errorf("ethtypes: invalid wei amount %q: %w", text, err)
	}
	*w = v
	return nil
}

// The reasons a parser gives for refusing an amount.
var (
	errWeiSyntax = errors.New("not an unsigned integer")
	errWeiRange  = errors.New("at least 2^128")
)

// ParseWeiHex parses a JSON-RPC quantity: 0x and one or more hex digits
// of either case, no sign, below 2^128; leading zeros are accepted.
func ParseWeiHex(s string) (Wei, error) {
	err := errWeiSyntax
	var w Wei
	if len(s) >= 2 && s[:2] == "0x" {
		w, err = parseDigits(s[2:], 16)
	}
	if err != nil {
		return Wei{}, fmt.Errorf("ethtypes: invalid hex wei amount %q: %w", s, err)
	}
	return w, nil
}

// parseDigits parses s as digits in base 10 or 16, without a sign.
func parseDigits(s string, base uint64) (Wei, error) {
	if s == "" {
		return Wei{}, errWeiSyntax
	}
	var w Wei
	overflow := false
	for i := 0; i < len(s); i++ {
		d := uint64(unhex[s[i]])
		if d >= base {
			return Wei{}, errWeiSyntax
		}
		if !overflow {
			w, overflow = w.mulAdd(base, d)
		}
	}
	if overflow {
		return Wei{}, errWeiRange
	}
	return w, nil
}
