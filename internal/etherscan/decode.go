package etherscan

// One-pass decoder for /api answers. It reads status, message and
// result in a single scan with no reflection, where encoding/json
// scans a page four times: it validates and decodes the envelope with
// the result as a json.RawMessage, then validates and decodes that
// again as the NOTOK text or as []TxRecord. For this schema it accepts
// and rejects exactly what that two-pass decode does, which
// FuzzDecodeTxList keeps as its reference:
//
//   - any JSON whitespace and any key order; keys match exactly, then
//     case-insensitively as encoding/json folds them; unknown keys are
//     skipped with nesting bounded at encoding/json's depth limit;
//   - strings unescape as encoding/json does, \u surrogate pairs
//     included, with invalid UTF-8 and lone surrogates becoming U+FFFD;
//   - null leaves a field as it was, a repeated key's last value wins,
//     and anything after the top-level value is an error;
//   - a type mismatch in a row only rejects the answer when its
//     message is not NOTOK: the client reads a NOTOK answer's result
//     only as error text, so it stays valid whatever the result holds.

import (
	"bytes"
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a value nested deeper
// than this many objects and arrays is a syntax error.
const maxDepth = 10000

// answer is one decoded /api reply.
type answer struct {
	status, message string
	// text is the result when the message is NOTOK: the API's error
	// text, or "" when the result is not a string.
	text string
	// rows are the result rows of any other message.
	rows []TxRecord
}

// Kinds of result value an answer can carry.
const (
	resultAbsent = iota
	resultNull
	resultString
	resultRows
	resultOther
)

var (
	envelopeKeys = [...][]byte{[]byte("status"), []byte("message"), []byte("result")}
	rowKeys      = [...][]byte{[]byte("blockNumber"), []byte("timeStamp"), []byte("hash"),
		[]byte("from"), []byte("to"), []byte("value"), []byte("isError"), []byte("functionName")}
)

// rowField returns the TxRecord field key i of rowKeys names.
func rowField(r *TxRecord, i int) *string {
	switch i {
	case 0:
		return &r.BlockNumber
	case 1:
		return &r.TimeStamp
	case 2:
		return &r.Hash
	case 3:
		return &r.From
	case 4:
		return &r.To
	case 5:
		return &r.Value
	case 6:
		return &r.IsError
	case 7:
		return &r.Method
	}
	return nil
}

// matchKey returns the index of the name in names that key selects, as
// encoding/json selects a struct field: an exact match first, then a
// case-insensitive one. It returns -1 for an unknown key.
func matchKey(key []byte, names [][]byte) int {
	for i, name := range names {
		if bytes.Equal(key, name) {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, name) {
			return i
		}
	}
	return -1
}

var (
	errEOF      = errors.New("unexpected end of input")
	errNoResult = errors.New("answer has no result")
)

// decoder is a cursor over one answer body.
type decoder struct {
	buf []byte
	pos int
	// scratch holds a string or key being unescaped.
	scratch []byte
	// mismatch records a row value of the wrong JSON type.
	mismatch bool
}

// decodeAnswer decodes body, an /api answer, in one pass.
func decodeAnswer(body []byte) (answer, error) {
	d := decoder{buf: body}
	var a answer
	kind := resultAbsent
	var err error
	d.space()
	if d.peek() == '{' {
		kind, err = d.envelope(&a)
	} else {
		// null decodes to an empty envelope, which has no result;
		// anything else is not an envelope at all.
		err = d.skip(0)
	}
	if err == nil {
		d.space()
		if d.pos < len(d.buf) {
			err = d.syntax("after top-level value")
		}
	}
	if err != nil {
		return answer{}, err
	}
	if a.message == "NOTOK" {
		if kind != resultString {
			a.text = ""
		}
		a.rows = nil
		return a, nil
	}
	switch {
	case kind == resultNull, kind == resultRows && !d.mismatch:
		return a, nil
	case kind == resultAbsent:
		return answer{}, errNoResult
	}
	return answer{}, errors.New("result is not a list of rows of strings")
}

// envelope decodes the top-level object into a and reports the kind
// of its result.
func (d *decoder) envelope(a *answer) (kind int, err error) {
	err = d.object(func(key []byte) error {
		switch matchKey(key, envelopeKeys[:]) {
		case 0:
			return d.envelopeString(&a.status, "status")
		case 1:
			return d.envelopeString(&a.message, "message")
		case 2:
			a.text, a.rows, d.mismatch = "", nil, false
			kind, err = d.result(a)
			return err
		}
		return d.skip(1)
	})
	return kind, err
}

// envelopeString decodes a value into a string field of the envelope.
func (d *decoder) envelopeString(dst *string, name string) error {
	ok, err := d.stringInto(dst, 1)
	if err == nil && !ok {
		err = fmt.Errorf("%s is not a string", name)
	}
	return err
}

// result decodes the result value: the NOTOK text, or the rows.
func (d *decoder) result(a *answer) (int, error) {
	switch d.peek() {
	case '"':
		s, err := d.str()
		a.text = s
		return resultString, err
	case 'n':
		return resultNull, d.literal("null")
	case '[':
	default:
		return resultOther, d.skip(1)
	}
	a.rows = []TxRecord{}
	return resultRows, d.array(func() error {
		switch d.peek() {
		case '{':
			var r TxRecord
			err := d.object(func(key []byte) error {
				i := matchKey(key, rowKeys[:])
				if i < 0 {
					return d.skip(3)
				}
				ok, err := d.stringInto(rowField(&r, i), 3)
				d.mismatch = d.mismatch || !ok
				return err
			})
			a.rows = append(a.rows, r)
			return err
		case 'n':
			a.rows = append(a.rows, TxRecord{})
			return d.literal("null")
		}
		d.mismatch = true
		return d.skip(2)
	})
}

// stringInto decodes the value at the cursor as encoding/json decodes
// into a string field: a string sets *dst and null leaves it. Any other
// value is skipped and reported as a mismatch (ok false); depth counts
// the containers around the value.
func (d *decoder) stringInto(dst *string, depth int) (ok bool, err error) {
	switch d.peek() {
	case '"':
		*dst, err = d.str()
		return true, err
	case 'n':
		return true, d.literal("null")
	}
	return false, d.skip(depth)
}

// object decodes the object at the cursor, calling field with each
// unescaped key once the cursor is on its value; field must consume
// the value. The key aliases the body or the scratch buffer, so it is
// valid only until the value is read.
func (d *decoder) object(field func(key []byte) error) error {
	d.pos++ // '{'
	d.space()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.unquote()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.pos++
		d.space()
		if err := field(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// array decodes the array at the cursor, calling elem with the cursor
// on each element; elem must consume it.
func (d *decoder) array(elem func() error) error {
	d.pos++ // '['
	d.space()
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case ']':
			d.pos++
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// skip consumes one value of any shape, checking its syntax as
// encoding/json's scanner does; depth counts the containers around it.
func (d *decoder) skip(depth int) error {
	c := d.peek()
	if (c == '{' || c == '[') && depth >= maxDepth {
		return d.syntax("exceeded max depth")
	}
	switch c {
	case '{':
		return d.object(func([]byte) error { return d.skip(depth + 1) })
	case '[':
		return d.array(func() error { return d.skip(depth + 1) })
	case '"':
		_, err := d.unquote()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.number()
}

// str reads a string value.
func (d *decoder) str() (string, error) {
	b, err := d.unquote()
	return string(b), err
}

// unquote reads the string literal at the cursor and returns its
// contents. Without escapes or non-ASCII bytes the result aliases the
// body; otherwise it is built in the scratch buffer.
func (d *decoder) unquote() ([]byte, error) {
	start := d.pos + 1
	i := start
	for i < len(d.buf) {
		c := d.buf[i]
		if c == '"' {
			d.pos = i + 1
			return d.buf[start:i], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	out := append(d.scratch[:0], d.buf[start:i]...)
	for {
		if i >= len(d.buf) {
			return nil, errEOF
		}
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			d.scratch = out
			return out, nil
		case c == '\\':
			if i+1 >= len(d.buf) {
				return nil, errEOF
			}
			switch e := d.buf[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := d.hex4(i + 2)
				if !ok {
					d.pos = i
					return nil, d.syntax("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair is consumed whole; anything else
					// leaves a replacement for the first half alone.
					if r2, ok := d.hex4(i + 2); ok && d.buf[i] == '\\' && d.buf[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							out = utf8.AppendRune(out, dec)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i + 1
				return nil, d.syntax("in string escape code")
			}
			i += 2
		case c < ' ':
			d.pos = i
			return nil, d.syntax("in string literal")
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			// Valid UTF-8 re-encodes as itself; each invalid byte
			// decodes as one U+FFFD.
			r, size := utf8.DecodeRune(d.buf[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
}

// hex4 parses the four hex digits at d.buf[i:].
func (d *decoder) hex4(i int) (rune, bool) {
	if i+4 > len(d.buf) {
		return 0, false
	}
	var r rune
	for _, c := range d.buf[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// literal consumes the literal word (true, false or null).
func (d *decoder) literal(word string) error {
	if !bytes.HasPrefix(d.buf[d.pos:], []byte(word)) {
		return d.syntax("in literal " + word)
	}
	d.pos += len(word)
	return nil
}

// number consumes a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() error {
	b, i := d.buf, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		d.pos = i
		return d.syntax("looking for beginning of value")
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := digits(b, i)
		if j == i {
			d.pos = i
			return d.syntax("after decimal point in numeric literal")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.pos = i
			return d.syntax("in exponent of numeric literal")
		}
		i = j
	}
	d.pos = i
	return nil
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of the body: a
// byte no JSON value can start or continue with outside a string.
func (d *decoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// syntax reports invalid input at the cursor.
func (d *decoder) syntax(context string) error {
	if d.pos >= len(d.buf) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.buf[d.pos], context, d.pos)
}
