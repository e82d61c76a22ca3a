// Package ethtypes defines the elementary Ethereum value types shared by the
// rest of the repository: 20-byte addresses, 32-byte hashes, and Wei amounts
// with exact 128-bit arithmetic. Hex encoding follows Ethereum
// conventions (0x prefix, EIP-55 mixed-case checksums for addresses).
package ethtypes

import (
	"encoding/hex"
	"fmt"

	"ensdropcatch/internal/keccak"
)

// AddressLength is the size of an Ethereum address in bytes.
const AddressLength = 20

// HashLength is the size of an Ethereum hash in bytes.
const HashLength = 32

// Address is a 20-byte Ethereum account or contract address.
type Address [AddressLength]byte

// Hash is a 32-byte Keccak-256 digest (transaction IDs, event topics,
// namehashes).
type Hash [HashLength]byte

// ZeroAddress is the all-zero address, used by ENS to mean "unset".
var ZeroAddress Address

// ZeroHash is the all-zero hash (the ENS root node).
var ZeroHash Hash

// BytesToAddress returns the address formed by the last 20 bytes of b,
// left-padding with zeros when b is shorter.
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > AddressLength {
		b = b[len(b)-AddressLength:]
	}
	copy(a[AddressLength-len(b):], b)
	return a
}

// HashData returns the Keccak-256 digest of data as a Hash.
func HashData(data []byte) Hash {
	return Hash(keccak.Sum256(data))
}

// DeriveAddress deterministically derives an address from a label such as
// "owner-001". The simulated world uses it instead of ECDSA key generation:
// the address is the last 20 bytes of keccak256(label), matching how real
// addresses are derived from public keys.
func DeriveAddress(label string) Address {
	sum := keccak.Sum256([]byte(label))
	return BytesToAddress(sum[12:])
}

// ParseAddress parses a 0x-prefixed (or bare) 40-digit hex address.
// Mixed-case inputs are accepted without checksum verification.
func ParseAddress(s string) (Address, error) {
	var a Address
	if err := decodeHex(a[:], s); err != nil {
		return Address{}, fmt.Errorf("parse address %q: %w", s, err)
	}
	return a, nil
}

// ParseHash parses a 0x-prefixed (or bare) 64-digit hex hash.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if err := decodeHex(h[:], s); err != nil {
		return Hash{}, fmt.Errorf("parse hash %q: %w", s, err)
	}
	return h, nil
}

// decodeHex decodes s, with or without a 0x prefix, into exactly
// len(dst) bytes without allocating. The errors are those of
// hex.DecodeString followed by a length check: input of the wrong
// length goes through hex.DecodeString itself, so an odd length or a
// bad byte keeps hex.DecodeString's text and precedence.
func decodeHex(dst []byte, s string) error {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	if len(s) != 2*len(dst) {
		b, err := hex.DecodeString(s)
		if err != nil {
			return err
		}
		return fmt.Errorf("got %d bytes, want %d", len(b), len(dst))
	}
	for i := range dst {
		hi, lo := unhex[s[2*i]], unhex[s[2*i+1]]
		if hi > 0x0f {
			return hex.InvalidByteError(s[2*i])
		}
		if lo > 0x0f {
			return hex.InvalidByteError(s[2*i+1])
		}
		dst[i] = hi<<4 | lo
	}
	return nil
}

// unhex maps each byte to its value as a hex digit, 0xff if it is not one.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i, c := range "0123456789abcdef" {
		t[c] = byte(i)
	}
	for i, c := range "ABCDEF" {
		t[c] = byte(10 + i)
	}
	return t
}()

// Hex returns the EIP-55 checksummed 0x-prefixed representation.
func (a Address) Hex() string {
	raw := hex.EncodeToString(a[:])
	sum := keccak.Sum256([]byte(raw))
	out := make([]byte, 2+2*AddressLength)
	out[0], out[1] = '0', 'x'
	for i, c := range []byte(raw) {
		if c >= 'a' && c <= 'f' {
			// Uppercase when the corresponding checksum nibble is >= 8.
			nibble := sum[i/2]
			if i%2 == 0 {
				nibble >>= 4
			}
			if nibble&0x0f >= 8 {
				c -= 'a' - 'A'
			}
		}
		out[2+i] = c
	}
	return string(out)
}

// String returns the checksummed hex form.
func (a Address) String() string { return a.Hex() }

// IsZero reports whether the address is the zero address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// MarshalText implements encoding.TextMarshaler (lower-case hex for
// stability of serialized datasets).
func (a Address) MarshalText() ([]byte, error) {
	return []byte("0x" + hex.EncodeToString(a[:])), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (a *Address) UnmarshalText(text []byte) error {
	parsed, err := ParseAddress(string(text))
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}

// Hex returns the 0x-prefixed lower-case hex form.
func (h Hash) Hex() string { return "0x" + hex.EncodeToString(h[:]) }

// String returns the hex form.
func (h Hash) String() string { return h.Hex() }

// IsZero reports whether the hash is all zeros.
func (h Hash) IsZero() bool { return h == ZeroHash }

// MarshalText implements encoding.TextMarshaler.
func (h Hash) MarshalText() ([]byte, error) {
	return []byte(h.Hex()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (h *Hash) UnmarshalText(text []byte) error {
	parsed, err := ParseHash(string(text))
	if err != nil {
		return err
	}
	*h = parsed
	return nil
}
