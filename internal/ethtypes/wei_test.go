package ethtypes

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// maxWei is 2^128-1, the largest amount a Wei holds.
var maxWei = Wei{lo: math.MaxUint64, hi: math.MaxUint64}

// toBig and fromBig convert through math/big, the reference every
// property test holds Wei to.
func toBig(w Wei) *big.Int {
	i := new(big.Int).SetUint64(w.hi)
	return i.Lsh(i, 64).Or(i, new(big.Int).SetUint64(w.lo))
}

func fromBig(i *big.Int) Wei {
	lo := new(big.Int).And(i, new(big.Int).SetUint64(math.MaxUint64))
	return Wei{lo: lo.Uint64(), hi: new(big.Int).Rsh(i, 64).Uint64()}
}

// randWei draws an amount whose bit length is uniform in [0, 128], so
// one- and two-word amounts and the boundaries between them all occur.
func randWei(r *rand.Rand) Wei {
	n := uint(r.Intn(129))
	w := Wei{lo: r.Uint64(), hi: r.Uint64()}
	switch {
	case n == 0:
		return Wei{}
	case n <= 64:
		return Wei{lo: w.lo >> (64 - n)}
	default:
		return Wei{lo: w.lo, hi: w.hi >> (128 - n)}
	}
}

// overflowEth is the smallest float64 ether amount whose wei product
// reaches 2^128, where EtherFloat starts to panic.
func overflowEth() float64 {
	limit := math.Ldexp(1, 128)
	x := limit / 1e18
	for x*1e18 < limit {
		x = math.Nextafter(x, math.Inf(1))
	}
	for math.Nextafter(x, 0)*1e18 >= limit {
		x = math.Nextafter(x, 0)
	}
	return x
}

// parseDecimal is UnmarshalText in the shape of ParseWeiHex.
func parseDecimal(s string) (Wei, error) {
	var w Wei
	err := w.UnmarshalText([]byte(s))
	return w, err
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func TestWeiZeroValue(t *testing.T) {
	var w Wei
	if !w.IsZero() {
		t.Error("zero value is not zero")
	}
	if got := w.Add(NewWei(5)); got.Cmp(NewWei(5)) != 0 {
		t.Errorf("0 + 5 = %s", got)
	}
	if w.String() != "0 wei" {
		t.Errorf("String() = %q", w.String())
	}
}

func TestWeiArithmetic(t *testing.T) {
	a := Ether(2)
	b := Ether(1)
	if got := a.Sub(b); got.Cmp(Ether(1)) != 0 {
		t.Errorf("2e - 1e = %s", got)
	}
	if got := b.MulInt(3); got.Cmp(Ether(3)) != 0 {
		t.Errorf("1e * 3 = %s", got)
	}
	if got := a.DivInt(4); got.Ether() != 0.5 {
		t.Errorf("2e / 4 = %v ether", got.Ether())
	}
}

func TestWeiImmutability(t *testing.T) {
	a := NewWei(100)
	_ = a.Add(NewWei(50))
	if a.Cmp(NewWei(100)) != 0 {
		t.Error("Add mutated receiver")
	}
	b := a
	a = a.MulInt(7)
	if b != NewWei(100) || a != NewWei(700) {
		t.Errorf("copy %s and original %s share storage", b, a)
	}
}

func TestWeiUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sub underflow did not panic")
		}
	}()
	NewWei(1).Sub(NewWei(2))
}

func TestNegativePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"NewWei":     func() { NewWei(-1) },
		"Ether":      func() { Ether(-1) },
		"Gwei":       func() { Gwei(-1) },
		"EtherFloat": func() { EtherFloat(-1e-30) },
		"NaN":        func() { EtherFloat(math.NaN()) },
		"MulInt":     func() { NewWei(1).MulInt(-1) },
		"DivInt":     func() { NewWei(1).DivInt(0) },
	} {
		if !panics(fn) {
			t.Errorf("%s did not panic", name)
		}
	}
}

// TestWeiOverflowPanics pins the 128-bit bound: arithmetic that reaches
// 2^128 panics, and the largest amount below it does not.
func TestWeiOverflowPanics(t *testing.T) {
	top := overflowEth()
	for name, fn := range map[string]func(){
		"Add":          func() { maxWei.Add(NewWei(1)) },
		"AddHigh":      func() { Wei{hi: 1 << 63}.Add(Wei{hi: 1 << 63}) },
		"MulInt":       func() { maxWei.DivInt(2).MulInt(3) },
		"MulIntHigh":   func() { Wei{hi: 1}.MulInt(math.MaxInt64).MulInt(4) },
		"MulIntCarry":  func() { Wei{lo: math.MaxUint64, hi: math.MaxUint64 / 3}.MulInt(3) },
		"EtherFloat":   func() { EtherFloat(top) },
		"EtherFloatUp": func() { EtherFloat(math.Inf(1)) },
	} {
		if !panics(fn) {
			t.Errorf("%s did not panic", name)
		}
	}
	for name, fn := range map[string]func(){
		"Add":        func() { maxWei.Sub(NewWei(1)).Add(NewWei(1)) },
		"MulInt":     func() { maxWei.DivInt(3).MulInt(3) },
		"EtherFloat": func() { EtherFloat(math.Nextafter(top, 0)) },
		"Sub":        func() { maxWei.Sub(maxWei) },
	} {
		if panics(fn) {
			t.Errorf("%s below the bound panicked", name)
		}
	}
}

// TestWeiMatchesBig holds the arithmetic, Cmp and both renderings to
// math/big on seeded random amounts of every bit length, and checks
// that each operation panics exactly when math/big's result leaves
// [0, 2^128).
func TestWeiMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	limit := new(big.Int).Lsh(big.NewInt(1), 128)
	inRange := func(i *big.Int) bool { return i.Sign() >= 0 && i.Cmp(limit) < 0 }
	check := func(op string, a, b Wei, n int64, got func() Wei, want *big.Int) {
		t.Helper()
		var w Wei
		if panicked := panics(func() { w = got() }); panicked == inRange(want) {
			t.Fatalf("%s(%s, %s, %d): panicked %v, want result %s", op, a, b, n, panicked, want)
		}
		if inRange(want) && toBig(w).Cmp(want) != 0 {
			t.Fatalf("%s(%s, %s, %d) = %s, want %s", op, a, b, n, w, want)
		}
	}
	for i := 0; i < 20000; i++ {
		a, b := randWei(r), randWei(r)
		n := r.Int63() >> uint(r.Intn(63))
		ba, bb, bn := toBig(a), toBig(b), big.NewInt(n)
		if fromBig(ba) != a {
			t.Fatalf("fromBig(toBig(%s)) = %s", a, fromBig(ba))
		}
		check("Add", a, b, n, func() Wei { return a.Add(b) }, new(big.Int).Add(ba, bb))
		check("Sub", a, b, n, func() Wei { return a.Sub(b) }, new(big.Int).Sub(ba, bb))
		check("MulInt", a, b, n, func() Wei { return a.MulInt(n) }, new(big.Int).Mul(ba, bn))
		if n > 0 {
			check("DivInt", a, b, n, func() Wei { return a.DivInt(n) }, new(big.Int).Quo(ba, bn))
		}
		if got, want := a.Cmp(b), ba.Cmp(bb); got != want {
			t.Fatalf("Cmp(%s, %s) = %d, want %d", a, b, got, want)
		}
		if got, want := string(a.AppendDecimal([]byte("x"))), "x"+ba.String(); got != want {
			t.Fatalf("AppendDecimal = %s, want %s", got, want)
		}
		if got, want := a.Hex(), "0x"+ba.Text(16); got != want {
			t.Fatalf("Hex = %s, want %s", got, want)
		}
		if got, want := a.IsZero(), ba.Sign() == 0; got != want {
			t.Fatalf("IsZero(%s) = %v", a, got)
		}
	}
}

// etherFloatBig is EtherFloat computed in math/big: the float taken at
// 53 bits, multiplied by 10^18 at 53 bits (nearest-even), truncated.
func etherFloatBig(eth float64) *big.Int {
	f := new(big.Float).SetFloat64(eth)
	f.Mul(f, new(big.Float).SetInt(new(big.Int).Exp(big.NewInt(10), big.NewInt(18), nil)))
	i, _ := f.Int(nil)
	return i
}

// TestEtherFloatMatchesBigFloat holds EtherFloat's float64 product to
// the math/big formula, bit for bit, over seeded random floats at every
// exponent that fits, random bit patterns, the 2^64/1e18 boundary where
// the amount moves into the high word and its neighbours, and zero and
// subnormal inputs.
func TestEtherFloatMatchesBigFloat(t *testing.T) {
	top := overflowEth()
	check := func(eth float64) {
		t.Helper()
		if got, want := toBig(EtherFloat(eth)), etherFloatBig(eth); got.Cmp(want) != 0 {
			t.Fatalf("EtherFloat(%v = %#x) = %s, math/big %s", eth, math.Float64bits(eth), got, want)
		}
	}
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Ldexp(1, -1022) - math.SmallestNonzeroFloat64,
		math.Ldexp(1, -1022), 1e-18, 1e-19, 1, 18.446744073709551616, math.Ldexp(1, 64) / 1e18, math.Nextafter(top, 0)}
	for _, e := range edges {
		check(e)
		x, y := e, e
		for i := 0; i < 64; i++ {
			x, y = math.Nextafter(x, 0), math.Nextafter(y, top)
			check(x)
			if y < top {
				check(y)
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for exp := -1074; exp < 68; exp++ {
		for i := 0; i < 200; i++ {
			if eth := math.Ldexp(1+r.Float64(), exp); eth < top {
				check(eth)
			}
		}
	}
	for i := 0; i < 100000; i++ {
		if eth := math.Float64frombits(r.Uint64() >> 1); eth < top {
			check(eth)
		}
	}
}

func TestEtherFloatRoundTrip(t *testing.T) {
	for _, eth := range []float64{0, 0.001, 1, 1.5, 4700.25} {
		w := EtherFloat(eth)
		if got := w.Ether(); math.Abs(got-eth) > 1e-9 {
			t.Errorf("EtherFloat(%v).Ether() = %v", eth, got)
		}
	}
}

func TestWeiTextRoundTrip(t *testing.T) {
	for _, w := range []Wei{Ether(123).Add(NewWei(456)), {}, maxWei, {hi: 1}} {
		text, err := w.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Wei
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back.Cmp(w) != 0 {
			t.Errorf("round trip mismatch: %s vs %s", back, w)
		}
		if back, err := ParseWeiHex(w.Hex()); err != nil || back != w {
			t.Errorf("hex round trip of %s: %s, %v", w, back, err)
		}
	}
}

func TestWeiUnmarshalRejectsGarbage(t *testing.T) {
	var w Wei
	for _, bad := range []string{"", "abc", "-5", "1.5", "+5", "-0", " 1", "1 ", "1_000", "0x10",
		"340282366920938463463374607431768211456", "1" + strings.Repeat("0", 60)} {
		if err := w.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) succeeded", bad)
		}
	}
	for _, c := range []struct {
		in   string
		hex  bool
		want error
	}{
		{in: "340282366920938463463374607431768211455"},
		{in: "340282366920938463463374607431768211456", want: errWeiRange},
		{in: "99999999999999999999999999999999999999999x", want: errWeiSyntax},
		{in: "-1", want: errWeiSyntax},
		{in: "0x" + strings.Repeat("F", 32), hex: true},
		{in: "0x0000" + strings.Repeat("f", 32), hex: true},
		{in: "0x1" + strings.Repeat("0", 32), hex: true, want: errWeiRange},
		{in: "0x", hex: true, want: errWeiSyntax},
		{in: "0X1", hex: true, want: errWeiSyntax},
		{in: "0x-1", hex: true, want: errWeiSyntax},
		{in: "12", hex: true, want: errWeiSyntax},
	} {
		parse := parseDecimal
		if c.hex {
			parse = ParseWeiHex
		}
		got, err := parse(c.in)
		switch {
		case c.want == nil && (err != nil || got != maxWei):
			t.Errorf("parse %q = %s, %v; want 2^128-1", c.in, got, err)
		case c.want != nil && !errors.Is(err, c.want):
			t.Errorf("parse %q: error %v, want %v", c.in, err, c.want)
		}
	}
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := NewWei(int64(a)), NewWei(int64(b))
		return x.Add(y).Cmp(y.Add(x)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := NewWei(int64(a)), NewWei(int64(b))
		return x.Add(y).Sub(y).Cmp(x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGweiScale(t *testing.T) {
	if Gwei(1_000_000_000).Cmp(Ether(1)) != 0 {
		t.Error("1e9 gwei != 1 ether")
	}
}

func TestWeiAppendDecimal(t *testing.T) {
	for _, w := range []Wei{{}, NewWei(0), NewWei(7), Ether(1), {lo: math.MaxUint64}, {hi: 1},
		fromBig(new(big.Int).Exp(big.NewInt(10), big.NewInt(19), nil)),
		fromBig(new(big.Int).Exp(big.NewInt(10), big.NewInt(38), nil)), maxWei} {
		if got, want := string(w.AppendDecimal([]byte("x"))), "x"+toBig(w).String(); got != want {
			t.Errorf("AppendDecimal = %s, want %s", got, want)
		}
	}
}

// TestWeiDoesNotAllocate pins the representation: no arithmetic, no
// comparison, no float conversion in and no decimal rendering into a
// buffer with room allocates.
func TestWeiDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 40)
	a, b := Ether(3), maxWei.DivInt(3)
	var sink Wei
	for name, fn := range map[string]func(){
		"Add":               func() { sink = a.Add(b) },
		"Sub":               func() { sink = b.Sub(a) },
		"MulInt":            func() { sink = a.MulInt(1 << 40) },
		"DivInt":            func() { sink = b.DivInt(7) },
		"Cmp":               func() { _ = a.Cmp(b) + b.Cmp(a) },
		"IsZero":            func() { _ = a.IsZero() },
		"EtherFloat":        func() { sink = EtherFloat(0.0123).Add(EtherFloat(3e19)) },
		"AppendDecimal":     func() { buf = a.AppendDecimal(buf[:0]) },
		"AppendDecimalWide": func() { buf = maxWei.AppendDecimal(buf[:0]) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times, want 0", name, allocs)
		}
	}
	_ = sink
}

// FuzzParseWei holds both parsers and both renderings to math/big on
// arbitrary bytes. UnmarshalText must accept exactly math/big's base-10
// grammar without a sign, in [0, 2^128), and ParseWeiHex the same in
// base 16 after a 0x; an accepted amount must render as math/big
// renders it. The first 16 bytes, read as the two words, are also
// rendered, so every amount is reached whether or not it parses.
func FuzzParseWei(f *testing.F) {
	for _, s := range []string{"0", "1", "18446744073709551615", "18446744073709551616",
		"340282366920938463463374607431768211455", "340282366920938463463374607431768211456",
		"-0", "+5", "", "0x", "0x0", "0x00ff", "0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF",
		"0x100000000000000000000000000000000", "0x+1", "0x-0", "1_0", "0b1", "\xff\xfe"} {
		f.Add([]byte(s))
	}
	limit := new(big.Int).Lsh(big.NewInt(1), 128)
	f.Fuzz(func(t *testing.T, b []byte) {
		s := string(b)
		check := func(what string, got Wei, err error, digits string, base int) {
			want, ok := new(big.Int).SetString(digits, base)
			ok = ok && digits[0] != '+' && digits[0] != '-' && want.Cmp(limit) < 0
			switch {
			case ok != (err == nil):
				t.Fatalf("%s(%q) = %s, %v; math/big accepts: %v", what, s, got, err, ok)
			case ok && toBig(got).Cmp(want) != 0:
				t.Fatalf("%s(%q) = %s, math/big %s", what, s, got, want)
			case !ok && !errors.Is(err, errWeiSyntax) && !errors.Is(err, errWeiRange):
				t.Fatalf("%s(%q): error %v wraps neither sentinel", what, s, err)
			}
		}
		w, err := parseDecimal(s)
		check("UnmarshalText", w, err, s, 10)
		w, err = ParseWeiHex(s)
		if digits, ok := strings.CutPrefix(s, "0x"); ok {
			check("ParseWeiHex", w, err, digits, 16)
		} else if err == nil {
			t.Fatalf("ParseWeiHex(%q) accepted input without 0x", s)
		}

		var raw [16]byte
		copy(raw[:], b)
		w = Wei{}
		for i := 0; i < 8; i++ {
			w.lo |= uint64(raw[i]) << (8 * i)
			w.hi |= uint64(raw[8+i]) << (8 * i)
		}
		want := toBig(w)
		if got := string(w.AppendDecimal(nil)); got != want.String() {
			t.Fatalf("AppendDecimal(%#x) = %s, math/big %s", raw, got, want)
		}
		if got := w.Hex(); got != "0x"+want.Text(16) {
			t.Fatalf("Hex(%#x) = %s, math/big 0x%s", raw, got, want.Text(16))
		}
	})
}
