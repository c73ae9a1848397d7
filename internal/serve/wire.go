package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The request wire's decoder: one scanner for ScoreRequest and
// BatchRequest bodies, with no reflection and no intermediate token
// values. It answers every body the way encoding/json.Unmarshal answers
// it for these types (FuzzDecodeScoreRequest holds it to that):
//
//   - keys match a field exactly, else under bytes.EqualFold; unknown keys
//     are skipped, whatever they hold, up to maxWireDepth levels deep;
//   - null leaves a struct, number, string or bool as it is and clears a
//     slice, map or pointer;
//   - a repeated key decodes into what the earlier one left, as
//     encoding/json does: a second "supervector" or "frontends" object
//     merges into the first, a repeated array overwrites in place (so a
//     shorter one keeps the earlier elements' storage);
//   - numbers pass the JSON grammar first and then go to the strconv call
//     encoding/json makes, so values are bit-identical and anything it
//     rejects (1e400, 1.0 as an index, an index past int32) is rejected;
//   - strings unquote as encoding/json unquotes them, invalid UTF-8
//     becoming U+FFFD;
//   - anything but whitespace after the value is an error.
//
// Nothing decoded aliases the body, so its buffer can be reused as soon
// as decoding returns. A supervector's idx and val land in exactly sized
// slices, and a lattice's alternatives in one arena per front-end.

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

// wireError carries a decoding failure up the stack to
// DecodeScoreRequest.
type wireError struct{ err error }

// DecodeScoreRequest parses a request body: one ScoreRequest, or a
// BatchRequest's utterances when batch is set. Every lred role reads its
// scoring requests through it; it is exported for the bench harness.
func DecodeScoreRequest(body []byte, batch bool) (utts []ScoreRequest, err error) {
	d := &wireDecoder{buf: body}
	defer func() {
		if e := recover(); e != nil {
			we, ok := e.(wireError)
			if !ok {
				panic(e)
			}
			utts, err = nil, we.err
		}
	}()
	if batch {
		var req BatchRequest
		d.batchRequest(&req)
		utts = req.Utterances
	} else {
		utts = make([]ScoreRequest, 1)
		d.scoreRequest(&utts[0])
	}
	d.space()
	if d.pos < len(d.buf) {
		d.fail("unexpected data after the JSON value")
	}
	return utts, nil
}

type wireDecoder struct {
	buf   []byte
	pos   int
	depth int // open arrays and objects around pos
}

func (d *wireDecoder) fail(format string, args ...any) {
	panic(wireError{fmt.Errorf(format, args...)})
}

func (d *wireDecoder) syntax() {
	if d.pos >= len(d.buf) {
		d.fail("unexpected end of JSON input")
	}
	d.fail("invalid character %q at offset %d", d.buf[d.pos], d.pos)
}

// mismatch rejects a well-placed value of the wrong JSON type for the
// field it fills.
func (d *wireDecoder) mismatch(want string) {
	var got string
	switch d.buf[d.pos] {
	case '{':
		got = "object"
	case '[':
		got = "array"
	case '"':
		got = "string"
	case 't', 'f':
		got = "bool"
	case 'n':
		got = "null"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		got = "number"
	default:
		d.syntax()
	}
	d.fail("cannot decode %s into %s at offset %d", got, want, d.pos)
}

func (d *wireDecoder) space() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, failing at the end of
// the body.
func (d *wireDecoder) peek() byte {
	d.space()
	if d.pos >= len(d.buf) {
		d.syntax()
	}
	return d.buf[d.pos]
}

func (d *wireDecoder) open() {
	d.pos++
	if d.depth++; d.depth > maxWireDepth {
		d.fail("exceeded max depth at offset %d", d.pos)
	}
}

func (d *wireDecoder) close() {
	d.pos++
	d.depth--
}

// more consumes the separator after a container element: true after a
// comma, false after the container's closing byte.
func (d *wireDecoder) more(closing byte) bool {
	switch d.peek() {
	case ',':
		d.pos++
		return true
	case closing:
		d.close()
		return false
	}
	d.syntax()
	return false
}

func (d *wireDecoder) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if d.pos >= len(d.buf) || d.buf[d.pos] != lit[i] {
			d.syntax()
		}
		d.pos++
	}
}

// null consumes a null literal, reporting whether there was one.
func (d *wireDecoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// number consumes a number token and returns it, failing on anything the
// JSON grammar rejects: strconv alone would take "+1", ".5", "1.",
// "0x1p3", "Inf" and "NaN".
func (d *wireDecoder) number() []byte {
	b, i := d.buf, d.pos
	digits := func(i int) int {
		if i >= len(b) || b[i]-'0' > 9 {
			d.pos = i
			d.syntax()
		}
		for i++; i < len(b) && b[i]-'0' <= 9; i++ {
		}
		return i
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i = digits(i)
	}
	if i < len(b) && b[i] == '.' {
		i = digits(i + 1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i = digits(i)
	}
	start := d.pos
	d.pos = i
	return b[start:i]
}

// scanString consumes a string token and returns its raw contents, and
// whether they need unquoting (an escape or a non-ASCII byte).
func (d *wireDecoder) scanString() (raw []byte, escaped bool) {
	b := d.buf
	start := d.pos + 1
	for i := start; ; {
		if i >= len(b) {
			d.pos = i
			d.syntax()
		}
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			return b[start:i], escaped
		case c == '\\':
			escaped = true
			i++
			if i >= len(b) {
				d.pos = i
				d.syntax()
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i >= len(b) || hexDigit(b[i]) < 0 {
						d.pos = i
						d.syntax()
					}
				}
				i++
			default:
				d.pos = i
				d.syntax()
			}
		case c < ' ':
			d.pos = i
			d.syntax()
		case c >= utf8.RuneSelf:
			escaped = true
			i++
		default:
			i++
		}
	}
}

// str consumes a string token and returns its unquoted bytes: a view of
// the body when no unquoting is needed, else a new slice.
func (d *wireDecoder) str() []byte {
	raw, escaped := d.scanString()
	if escaped {
		return unquote(raw)
	}
	return raw
}

func hexDigit(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// unquote decodes a string token's contents as encoding/json does: the
// JSON escapes, surrogate pairs joined (a lone surrogate becoming
// U+FFFD), and invalid UTF-8 coerced to U+FFFD byte by byte. scanString
// has already checked every escape.
func unquote(s []byte) []byte {
	b := make([]byte, 0, len(s)+utf8.UTFMax)
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						r += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := hexDigit(c)
		if h < 0 {
			return -1
		}
		r = r*16 + h
	}
	return r
}

// skip consumes one value of any shape, checking it against the JSON
// grammar. It keeps its own stack of open containers' closing bytes
// rather than recursing, so hostile nesting costs a byte per level, up
// to maxWireDepth.
func (d *wireDecoder) skip() {
	var stack []byte
	for {
		switch c := d.peek(); c {
		case '{', '[':
			d.open()
			closing := c + 2 // '}' or ']'
			if d.peek() == closing {
				d.close()
				break
			}
			stack = append(stack, closing)
			if closing == '}' {
				d.key()
			}
			continue
		case '"':
			d.scanString()
		case 't':
			d.literal("true")
		case 'f':
			d.literal("false")
		case 'n':
			d.literal("null")
		default:
			d.number()
		}
		// A value ended: consume separators and closing bytes until the
		// next value starts or the skipped value is complete.
		for {
			if len(stack) == 0 {
				return
			}
			closing := stack[len(stack)-1]
			if d.more(closing) {
				if closing == '}' {
					d.key()
				}
				break
			}
			stack = stack[:len(stack)-1]
		}
	}
}

// key consumes an object key and its colon, returning the unquoted key.
func (d *wireDecoder) key() []byte {
	if d.peek() != '"' {
		d.syntax()
	}
	k := d.str()
	if d.peek() != ':' {
		d.syntax()
	}
	d.pos++
	return k
}

// object consumes an object, calling field with each key while the
// decoder sits at the key's value; field must consume the value.
func (d *wireDecoder) object(want string, field func(key []byte)) {
	if d.peek() != '{' {
		d.mismatch(want)
	}
	d.open()
	if d.peek() == '}' {
		d.close()
		return
	}
	for {
		field(d.key())
		if !d.more('}') {
			return
		}
	}
}

// is reports whether key names the field name, as encoding/json matches
// them.
func is(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

func (d *wireDecoder) batchRequest(req *BatchRequest) {
	if d.null() {
		return
	}
	d.object("BatchRequest", func(k []byte) {
		if !is(k, "utterances") {
			d.skip()
			return
		}
		if d.null() {
			req.Utterances = nil
			return
		}
		if d.peek() != '[' {
			d.mismatch("[]ScoreRequest")
		}
		req.Utterances = array(d, req.Utterances, (*wireDecoder).scoreRequest)
	})
}

func (d *wireDecoder) scoreRequest(req *ScoreRequest) {
	if d.null() {
		return
	}
	d.object("ScoreRequest", func(k []byte) {
		switch {
		case is(k, "id"):
			d.string(&req.ID)
		case is(k, "frontends"):
			d.frontEnds(&req.FrontEnds)
		default:
			d.skip()
		}
	})
}

func (d *wireDecoder) frontEnds(m *map[string]FrontEndInput) {
	if d.null() {
		*m = nil
		return
	}
	if d.peek() == '{' && *m == nil {
		*m = make(map[string]FrontEndInput)
	}
	d.object("map[string]FrontEndInput", func(k []byte) {
		name := string(k)
		var in FrontEndInput // each key starts from zero: a repeated name replaces
		d.frontEnd(&in)
		(*m)[name] = in
	})
}

func (d *wireDecoder) frontEnd(in *FrontEndInput) {
	if d.null() {
		return
	}
	d.object("FrontEndInput", func(k []byte) {
		switch {
		case is(k, "supervector"):
			if d.null() {
				in.Supervector = nil
				return
			}
			if in.Supervector == nil {
				in.Supervector = new(Supervector)
			}
			d.supervector(in.Supervector)
		case is(k, "lattice"):
			d.lattice(&in.Lattice)
		default:
			d.skip()
		}
	})
}

func (d *wireDecoder) supervector(sv *Supervector) {
	d.object("Supervector", func(k []byte) {
		switch {
		case is(k, "idx"):
			numbers(d, &sv.Idx, (*wireDecoder).int32)
		case is(k, "val"):
			numbers(d, &sv.Val, (*wireDecoder).float64)
		case is(k, "scaled"):
			d.bool(&sv.Scaled)
		default:
			d.skip()
		}
	})
}

// lattice decodes a lattice. A new one is sized before it is parsed: one
// outer slice and one arena that every slot's alternatives are cut from.
func (d *wireDecoder) lattice(dst *[][]Slot) {
	if d.null() {
		*dst = nil
		return
	}
	if d.peek() != '[' {
		d.mismatch("[][]Slot")
	}
	var arena []Slot
	outer := *dst
	if outer == nil {
		slots, alts := d.latticeShape()
		outer, arena = make([][]Slot, 0, slots), make([]Slot, alts)
	}
	*dst = array(d, outer, func(d *wireDecoder, slot *[]Slot) {
		if d.null() {
			*slot = nil
			return
		}
		if d.peek() != '[' {
			d.mismatch("[]Slot")
		}
		s := *slot
		carved := s == nil && len(arena) > 0
		if carved {
			s = arena[:0]
		}
		s = array(d, s, (*wireDecoder).slot)
		if carved && len(s) > 0 {
			if &s[0] == &arena[0] {
				// Capped, so a repeated "lattice" key cannot reach the
				// next slot's alternatives.
				s = s[:len(s):len(s)]
			}
			arena = arena[min(len(s), len(arena)):] // a grown slot used it all
		}
		*slot = s
	})
}

// latticeShape estimates, without consuming or checking it, the lattice
// array at d.pos: its slot count and its total alternatives. For a
// well-formed lattice the counts are exact; they only size allocations,
// and counts the array is too short to hold give (0, 0).
func (d *wireDecoder) latticeShape() (slots, alts int) {
	b := d.buf
	start, depth, fresh := d.pos, 0, false
	for i := start; i < len(b); i++ {
		c := b[i]
		if fresh && c != ']' && c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			alts, fresh = alts+1, false // a slot's first alternative
		}
		switch c {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
			fresh = depth == 2 && c == '['
		case ']', '}':
			fresh = false
			if depth--; depth == 0 {
				// A slot takes at least "[]," and an alternative "{},".
				if limit := (i-start)/3 + 1; slots >= limit || alts > limit {
					return 0, 0
				}
				return slots + 1, alts
			}
		case ',':
			switch depth {
			case 1:
				slots++
			case 2:
				alts++
			}
		}
	}
	return 0, 0
}

func (d *wireDecoder) slot(s *Slot) {
	if d.null() {
		return
	}
	d.object("Slot", func(k []byte) {
		switch {
		case is(k, "phone"):
			d.int(&s.Phone)
		case is(k, "prob"):
			d.float64(&s.Prob)
		default:
			d.skip()
		}
	})
}

// array decodes an array into s as encoding/json decodes into an
// existing slice: elements decode over s's backing array in place —
// including elements past len(s) that an earlier, longer array left
// there — the slice grows as needed, and [] yields a new empty slice.
func array[T any](d *wireDecoder, s []T, elem func(*wireDecoder, *T)) []T {
	d.open()
	if d.peek() == ']' {
		d.close()
		return []T{}
	}
	s = s[:cap(s)]
	n := 0
	for {
		if n == len(s) {
			var zero T
			s = append(s, zero)
			s = s[:cap(s)]
		}
		elem(d, &s[n])
		n++
		if !d.more(']') {
			return s[:n]
		}
	}
}

// numbers decodes an idx or val array. A new one is counted first and
// parsed straight into an exactly sized slice; a repeated key's array
// takes array's path.
func numbers[T int32 | float64](d *wireDecoder, dst *[]T, elem func(*wireDecoder, *T)) {
	if d.null() {
		*dst = nil
		return
	}
	if d.peek() != '[' {
		var zero []T
		d.mismatch(fmt.Sprintf("%T", zero))
	}
	n := d.countNumbers()
	if *dst != nil || n < 0 {
		*dst = array(d, *dst, elem)
		return
	}
	s := make([]T, n)
	d.open()
	for i := range s {
		if i > 0 {
			if d.peek() != ',' {
				d.syntax()
			}
			d.pos++
		}
		elem(d, &s[i])
	}
	if d.peek() != ']' {
		d.syntax()
	}
	d.close()
	*dst = s
}

// countNumbers counts the elements of the array at d.pos as its commas
// before the first ']', or returns -1 for an empty or unterminated one.
// Only numbers and nulls decode into an idx or val element, and neither
// holds a comma or a bracket, so the count is exact for every array that
// decodes. For the rest it only has to stay small: a count the array's
// length could not hold (every element takes a byte and a comma) is
// refused.
func (d *wireDecoder) countNumbers() int {
	rest := d.buf[d.pos+1:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 || len(bytes.TrimLeft(rest[:end], " \t\n\r")) == 0 {
		return -1
	}
	n := bytes.Count(rest[:end], []byte{','}) + 1
	if n > end/2+1 {
		return -1
	}
	return n
}

// numberToken consumes the number for a field of type want and returns
// it, or returns nil after a null.
func (d *wireDecoder) numberToken(want string) []byte {
	if d.null() {
		return nil
	}
	if c := d.peek(); c != '-' && c-'0' > 9 {
		d.mismatch(want)
	}
	return d.number()
}

// outOfRange rejects a well-formed number the field's type cannot hold.
func (d *wireDecoder) outOfRange(tok []byte, want string) {
	d.fail("cannot decode number %s into %s at offset %d", tok, want, d.pos-len(tok))
}

func (d *wireDecoder) int32(p *int32) {
	if tok := d.numberToken("int32"); tok != nil {
		n, err := strconv.ParseInt(string(tok), 10, 32)
		if err != nil {
			d.outOfRange(tok, "int32")
		}
		*p = int32(n)
	}
}

func (d *wireDecoder) int(p *int) {
	if tok := d.numberToken("int"); tok != nil {
		n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		if err != nil {
			d.outOfRange(tok, "int")
		}
		*p = int(n)
	}
}

func (d *wireDecoder) float64(p *float64) {
	if tok := d.numberToken("float64"); tok != nil {
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			d.outOfRange(tok, "float64")
		}
		*p = f
	}
}

func (d *wireDecoder) bool(p *bool) {
	switch d.peek() {
	case 'n':
		d.literal("null")
	case 't':
		d.literal("true")
		*p = true
	case 'f':
		d.literal("false")
		*p = false
	default:
		d.mismatch("bool")
	}
}

func (d *wireDecoder) string(p *string) {
	if d.null() {
		return
	}
	if d.peek() != '"' {
		d.mismatch("string")
	}
	*p = string(d.str())
}
