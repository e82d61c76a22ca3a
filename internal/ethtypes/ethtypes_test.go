package ethtypes

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestBytesToAddressPadding(t *testing.T) {
	a := BytesToAddress([]byte{0x01, 0x02})
	if a[18] != 0x01 || a[19] != 0x02 {
		t.Errorf("short input not right-aligned: %x", a)
	}
	for i := 0; i < 18; i++ {
		if a[i] != 0 {
			t.Errorf("byte %d not zero-padded", i)
		}
	}
	long := make([]byte, 32)
	long[31] = 0xff
	b := BytesToAddress(long)
	if b[19] != 0xff {
		t.Errorf("long input not truncated from the left: %x", b)
	}
}

func TestEIP55Checksum(t *testing.T) {
	// Canonical test vectors from EIP-55.
	vectors := []string{
		"0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed",
		"0xfB6916095ca1df60bB79Ce92cE3Ea74c37c5d359",
		"0xdbF03B407c01E7cD3CBea99509d93f8DDDC8C6FB",
		"0xD1220A0cf47c7B9Be7A2E6BA89F429762e7b9aDb",
	}
	for _, v := range vectors {
		a, err := ParseAddress(v)
		if err != nil {
			t.Fatalf("ParseAddress(%q): %v", v, err)
		}
		if got := a.Hex(); got != v {
			t.Errorf("Hex() = %s, want %s", got, v)
		}
		if !VerifyChecksum(v) {
			t.Errorf("VerifyChecksum(%q) = false", v)
		}
	}
}

func TestVerifyChecksumRejectsBadCase(t *testing.T) {
	// Flip the case of one letter in a valid checksummed address.
	bad := "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAeD"
	if VerifyChecksum(bad) {
		t.Error("VerifyChecksum accepted a corrupted checksum")
	}
	// All-lowercase is always accepted.
	if !VerifyChecksum(strings.ToLower(bad)) {
		t.Error("VerifyChecksum rejected all-lowercase form")
	}
}

func TestParseAddressErrors(t *testing.T) {
	cases := []string{"", "0x", "0x123", "0xzz", strings.Repeat("a", 41)}
	for _, c := range cases {
		if _, err := ParseAddress(c); err == nil {
			t.Errorf("ParseAddress(%q) succeeded, want error", c)
		}
	}
}

// TestParseHexErrorText pins the accepted inputs and the exact error
// text of ParseAddress and ParseHash: odd length, a bad byte (reported
// before an odd length, first bad byte first) and a wrong length.
func TestParseHexErrorText(t *testing.T) {
	zeros := func(n int) string { return strings.Repeat("0", n) }
	cases := []struct {
		hash bool
		in   string
		want string // "" means accepted
	}{
		{in: "0x" + zeros(40)},
		{in: "0X" + strings.Repeat("A", 40)},
		{in: strings.Repeat("aB", 20)},
		{in: "", want: `parse address "": got 0 bytes, want 20`},
		{in: "0x", want: `parse address "0x": got 0 bytes, want 20`},
		{in: "0x123", want: `parse address "0x123": encoding/hex: odd length hex string`},
		{in: "0xzz", want: `parse address "0xzz": encoding/hex: invalid byte: U+007A 'z'`},
		{in: "0x" + zeros(39) + "g", want: `parse address "0x` + zeros(39) + `g": encoding/hex: invalid byte: U+0067 'g'`},
		{in: "0x" + zeros(38) + "g", want: `parse address "0x` + zeros(38) + `g": encoding/hex: invalid byte: U+0067 'g'`},
		{in: "0xg0" + zeros(37) + "h", want: `parse address "0xg0` + zeros(37) + `h": encoding/hex: invalid byte: U+0067 'g'`},
		{in: "x" + zeros(40), want: `parse address "x` + zeros(40) + `": encoding/hex: invalid byte: U+0078 'x'`},
		{in: "0x" + zeros(38) + "\xff0", want: `parse address "0x` + zeros(38) + `\xff0": encoding/hex: invalid byte: U+00FF 'ÿ'`},
		{in: strings.Repeat("a", 41), want: `parse address "` + strings.Repeat("a", 41) + `": encoding/hex: odd length hex string`},
		{in: strings.Repeat("a", 42), want: `parse address "` + strings.Repeat("a", 42) + `": got 21 bytes, want 20`},
		{hash: true, in: "0x" + strings.Repeat("f", 64)},
		{hash: true, in: "", want: `parse hash "": got 0 bytes, want 32`},
		{hash: true, in: "0x" + strings.Repeat("f", 63), want: `parse hash "0x` + strings.Repeat("f", 63) + `": encoding/hex: odd length hex string`},
		{hash: true, in: "0x" + strings.Repeat("f", 62) + "G0", want: `parse hash "0x` + strings.Repeat("f", 62) + `G0": encoding/hex: invalid byte: U+0047 'G'`},
		{hash: true, in: "0x" + strings.Repeat("f", 40), want: `parse hash "0x` + strings.Repeat("f", 40) + `": got 20 bytes, want 32`},
	}
	for _, c := range cases {
		var err error
		if c.hash {
			_, err = ParseHash(c.in)
		} else {
			_, err = ParseAddress(c.in)
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("parse %q: %v, want success", c.in, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("parse %q: error %v, want %s", c.in, err, c.want)
		}
	}
	a, err := ParseAddress("0x00112233445566778899aAbBcCdDeEfF00112233")
	if err != nil || a != (Address{0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x00, 0x11, 0x22, 0x33}) {
		t.Errorf("ParseAddress decoded %x, %v", a, err)
	}
}

func TestParseDoesNotAllocate(t *testing.T) {
	addr := DeriveAddress("alloc")
	addrHex := strings.ToLower(addr.Hex())
	hash := HashData([]byte("alloc"))
	hashHex := hash.Hex()
	allocs := testing.AllocsPerRun(100, func() {
		a, err := ParseAddress(addrHex)
		h, err2 := ParseHash(hashHex)
		if err != nil || err2 != nil || a != addr || h != hash {
			t.Fatal("parse mismatch")
		}
	})
	if allocs != 0 {
		t.Errorf("ParseAddress+ParseHash allocate %.0f times, want 0", allocs)
	}
}

func TestDeriveAddressDeterministic(t *testing.T) {
	a1 := DeriveAddress("owner-001")
	a2 := DeriveAddress("owner-001")
	b := DeriveAddress("owner-002")
	if a1 != a2 {
		t.Error("DeriveAddress not deterministic")
	}
	if a1 == b {
		t.Error("distinct labels produced the same address")
	}
	if a1.IsZero() {
		t.Error("derived address is zero")
	}
}

func TestAddressJSONRoundTrip(t *testing.T) {
	a := DeriveAddress("json-test")
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Address
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Errorf("round trip mismatch: %s vs %s", back, a)
	}
}

func TestHashJSONRoundTrip(t *testing.T) {
	h := HashData([]byte("gold.eth"))
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hash
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("round trip mismatch: %s vs %s", back, h)
	}
}

func TestQuickAddressTextRoundTrip(t *testing.T) {
	f := func(raw [20]byte) bool {
		a := Address(raw)
		text, err := a.MarshalText()
		if err != nil {
			return false
		}
		var back Address
		if err := back.UnmarshalText(text); err != nil {
			return false
		}
		return back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickChecksumSelfConsistent(t *testing.T) {
	f := func(raw [20]byte) bool {
		return VerifyChecksum(Address(raw).Hex())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
