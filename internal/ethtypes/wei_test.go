package ethtypes

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

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
	bi := big.NewInt(77)
	w := WeiFromBig(bi)
	bi.SetInt64(999)
	if w.Cmp(NewWei(77)) != 0 {
		t.Error("WeiFromBig aliased caller's big.Int")
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
		"NewWei": func() { NewWei(-1) },
		"Ether":  func() { Ether(-1) },
		"Gwei":   func() { Gwei(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(-1) did not panic", name)
				}
			}()
			fn()
		}()
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
	w := Ether(123).Add(NewWei(456))
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
}

func TestWeiUnmarshalRejectsGarbage(t *testing.T) {
	var w Wei
	for _, bad := range []string{"", "abc", "-5", "1.5"} {
		if err := w.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) succeeded", bad)
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
	huge, _ := new(big.Int).SetString("123456789012345678901234567890", 10)
	for _, w := range []Wei{{}, NewWei(0), NewWei(7), Ether(1), WeiFromBig(new(big.Int).SetUint64(math.MaxUint64)), WeiFromBig(huge)} {
		if got, want := string(w.AppendDecimal([]byte("x"))), "x"+w.BigInt().String(); got != want {
			t.Errorf("AppendDecimal = %s, want %s", got, want)
		}
	}
	buf := make([]byte, 0, 32)
	w := Ether(3)
	if allocs := testing.AllocsPerRun(100, func() { buf = w.AppendDecimal(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendDecimal of a uint64 amount allocates %.0f times, want 0", allocs)
	}
}
