// The wire codec: a hand-written reader and writer for the three fixed types
// of the newline-JSON protocol (tcp.go), in place of encoding/json's
// reflection. The bytes on the wire do not change. The writers emit exactly
// what json.Encoder.Encode emitted, and the readers accept, reject and fill in
// exactly what json.Unmarshal did, quirks included: a repeated key overwrites
// field by field, null leaves a field alone, and keys match case-insensitively
// under Unicode simple folding. FuzzWireRequest and FuzzWireResponse hold the
// codec to encoding/json: the same bytes out, and the same outcome in. The
// text of a rejection is the codec's own; only its class (a syntax or type
// error, answered "bad request:") is encoding/json's.
//
// Both readers keep their scratch (the string buffer, the decoded ops or
// reads, the bracket stack) across lines, so the steady state allocates
// nothing of its own but the strings a request names keyspaces with: the
// server decodes straight into a per-connection Request, and the client
// copies out only a response's reads.
package server

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"semstm/stm"
)

// maxDepth is encoding/json's nesting limit for arrays and objects together.
const maxDepth = 10000

var errEOF = errors.New("unexpected end of JSON input")

// wireScanner reads JSON from one line. It checks encoding/json's grammar as
// it goes: the first syntax error stops it, and every method is a no-op
// after that. A well-formed value of the wrong type for its field is
// recorded in mismatch and stepped over, just as json.Unmarshal records a
// type error and keeps decoding. A syntax error anywhere outranks a type
// mismatch, because json.Unmarshal checks the whole input before decoding.
type wireScanner struct {
	buf      []byte
	pos      int
	nest     []byte // the open '{' and '[' brackets
	err      error  // first syntax error
	mismatch error  // first type mismatch
	scratch  []byte // strings that need unescaping
}

func (s *wireScanner) reset(line []byte) {
	s.buf, s.pos, s.nest, s.err, s.mismatch = line, 0, s.nest[:0], nil, nil
}

// end checks that only whitespace follows the value and returns the line's
// error: the syntax error if there is one, else the first type mismatch.
func (s *wireScanner) end() error {
	s.peek()
	if s.pos < len(s.buf) {
		s.fail("after top-level value")
	}
	if s.err != nil {
		return s.err
	}
	return s.mismatch
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (s *wireScanner) peek() byte {
	for ; s.pos < len(s.buf); s.pos++ {
		if c := s.buf[s.pos]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

// fail records a syntax error at the cursor.
func (s *wireScanner) fail(context string) {
	switch {
	case s.err != nil:
	case s.pos >= len(s.buf):
		s.err = errEOF
	default:
		s.err = fmt.Errorf("invalid character %q %s", rune(s.buf[s.pos]), context)
	}
}

// skipByte steps over c if it is under the cursor.
func (s *wireScanner) skipByte(c byte) bool {
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// digits steps over a run of decimal digits and reports whether it was
// non-empty.
func (s *wireScanner) digits() bool {
	start := s.pos
	for s.pos < len(s.buf) && isDigit(s.buf[s.pos]) {
		s.pos++
	}
	return s.pos > start
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// open steps into the '{' or '[' under the cursor.
func (s *wireScanner) open() {
	s.nest = append(s.nest, s.buf[s.pos])
	if len(s.nest) > maxDepth {
		s.fail("exceeded max depth")
		return
	}
	s.pos++
}

// more reports whether the innermost open container has another member,
// stepping over the comma before it, or over the closing bracket when there
// is none. first is true for the call right after open. A member of an
// object starts with its key.
func (s *wireScanner) more(first bool) bool {
	if s.err != nil {
		return false
	}
	closer, context := byte(']'), "after array element"
	if s.nest[len(s.nest)-1] == '{' {
		closer, context = '}', "after object key:value pair"
	}
	switch c := s.peek(); {
	case c == closer:
		s.pos++
		s.nest = s.nest[:len(s.nest)-1]
		return false
	case first:
		return true
	case c == ',':
		s.pos++
		return true
	}
	s.fail(context)
	return false
}

// key reads an object member's name and the colon after it.
func (s *wireScanner) key() []byte {
	if s.peek() != '"' {
		s.fail("looking for beginning of object key string")
		return nil
	}
	k := s.str()
	if s.peek() != ':' {
		s.fail("after object key")
		return nil
	}
	s.pos++
	return k
}

// str reads the string literal under the cursor and returns it unquoted: a
// slice of the line when it has no escapes and is valid UTF-8, else an
// unescaped copy in scratch, valid until the next call.
func (s *wireScanner) str() []byte {
	s.pos++
	start, escaped := s.pos, false
	for s.pos < len(s.buf) {
		switch c := s.buf[s.pos]; {
		case c == '"':
			raw := s.buf[start:s.pos]
			s.pos++
			if !escaped && utf8.Valid(raw) {
				return raw
			}
			return s.unquote(raw)
		case c == '\\':
			escaped = true
			s.pos++
			switch {
			case s.skipByte('u'):
				for end := s.pos + 4; s.pos < end; s.pos++ {
					if s.pos >= len(s.buf) || hexVal(s.buf[s.pos]) < 0 {
						s.fail("in \\u hexadecimal character escape")
						return nil
					}
				}
			case s.pos < len(s.buf) && unescape(s.buf[s.pos]) != 0:
				s.pos++
			default:
				s.fail("in string escape code")
				return nil
			}
		case c < ' ':
			s.fail("in string literal")
			return nil
		default:
			s.pos++
		}
	}
	s.fail("")
	return nil
}

// unquote decodes a well-formed string body as encoding/json's unquote does:
// a \u escape of a surrogate needs its other half as the next escape or
// becomes U+FFFD, and so does every byte that is not valid UTF-8.
func (s *wireScanner) unquote(raw []byte) []byte {
	b := s.scratch[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+1 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
		case c == '\\':
			b = append(b, unescape(raw[i+1]))
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	s.scratch = b
	return b
}

// unescape returns the byte a one-letter escape stands for, or 0 for none.
func unescape(c byte) byte {
	switch c {
	case '"', '\\', '/':
		return c
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

func hexVal(c byte) rune {
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

// hex4 decodes the four hex digits str has already checked.
func hex4(b []byte) rune {
	return hexVal(b[0])<<12 | hexVal(b[1])<<8 | hexVal(b[2])<<4 | hexVal(b[3])
}

// number reads the number literal under the cursor.
func (s *wireScanner) number() []byte {
	start := s.pos
	s.skipByte('-')
	if !s.skipByte('0') && !s.digits() {
		s.fail("in numeric literal")
		return nil
	}
	if s.skipByte('.') && !s.digits() {
		s.fail("after decimal point in numeric literal")
		return nil
	}
	if s.skipByte('e') || s.skipByte('E') {
		if !s.skipByte('+') {
			s.skipByte('-')
		}
		if !s.digits() {
			s.fail("in exponent of numeric literal")
			return nil
		}
	}
	return s.buf[start:s.pos]
}

// literal steps over the word (true, false or null) under the cursor.
func (s *wireScanner) literal(word string) {
	for i := 0; i < len(word); i++ {
		if !s.skipByte(word[i]) {
			s.fail("in literal " + word)
			return
		}
	}
}

// scalar steps over the string, number or literal under the cursor.
func (s *wireScanner) scalar() {
	switch c := s.peek(); {
	case c == '"':
		s.str()
	case c == '-' || isDigit(c):
		s.number()
	case c == 't':
		s.literal("true")
	case c == 'f':
		s.literal("false")
	case c == 'n':
		s.literal("null")
	default:
		s.fail("looking for beginning of value")
	}
}

// skip checks and steps over one value of any shape: the unknown fields,
// and the values of the wrong type. It keeps its own place in nest rather
// than recursing, so the depth limit costs no stack.
func (s *wireScanner) skip() {
	base := len(s.nest)
	for s.err == nil {
		first := false
		if c := s.peek(); c == '{' || c == '[' {
			s.open()
			first = true
		} else {
			s.scalar()
		}
		// Climb out of every container the value closed; stop at the
		// next member of one still open, or at the level skip began on.
		for {
			if s.err != nil || len(s.nest) == base {
				return
			}
			if s.more(first) {
				break
			}
			first = false
		}
		if s.nest[len(s.nest)-1] == '{' {
			s.key()
		}
	}
}

// typeError records that the value just read does not fit the field named
// into, unless a mismatch came first.
func (s *wireScanner) typeError(into string) {
	if s.mismatch == nil {
		s.mismatch = fmt.Errorf("json: wrong type or range for %s", into)
	}
}

// wrongType records that the value under the cursor does not fit the field
// named into, and steps over it.
func (s *wireScanner) wrongType(into string) {
	s.typeError(into)
	s.skip()
}

// The typed readers below decode the value under the cursor as
// encoding/json decodes into a field of that type: null leaves the field
// alone, and any other value of the wrong kind is a type mismatch.

func (s *wireScanner) uintValue(dst *uint64, into string) {
	switch c := s.peek(); {
	case c == 'n':
		s.literal("null")
	case c == '-' || isDigit(c):
		lit := s.number()
		if v, ok := parseUint(lit); ok {
			*dst = v
		} else if s.err == nil {
			s.typeError(into)
		}
	default:
		s.wrongType(into)
	}
}

func (s *wireScanner) intValue(dst *int64, into string) {
	switch c := s.peek(); {
	case c == 'n':
		s.literal("null")
	case c == '-' || isDigit(c):
		lit := s.number()
		if v, ok := parseInt(lit); ok {
			*dst = v
		} else if s.err == nil {
			s.typeError(into)
		}
	default:
		s.wrongType(into)
	}
}

func (s *wireScanner) boolValue(dst *bool, into string) {
	switch s.peek() {
	case 'n':
		s.literal("null")
	case 't':
		s.literal("true")
		*dst = true
	case 'f':
		s.literal("false")
		*dst = false
	default:
		s.wrongType(into)
	}
}

// strValue returns the unquoted string, or ok false for null or a mismatch.
func (s *wireScanner) strValue(into string) (b []byte, ok bool) {
	switch s.peek() {
	case 'n':
		s.literal("null")
	case '"':
		b = s.str()
		return b, s.err == nil
	default:
		s.wrongType(into)
	}
	return nil, false
}

// parseUint accepts what strconv.ParseUint(lit, 10, 64) accepts of a JSON
// number: digits only (no sign, fraction or exponent), in range.
func parseUint(lit []byte) (uint64, bool) {
	if len(lit) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range lit {
		d := uint64(c - '0')
		if !isDigit(c) || n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseInt is strconv.ParseInt(lit, 10, 64) for a JSON number.
func parseInt(lit []byte) (int64, bool) {
	if len(lit) > 0 && lit[0] == '-' {
		n, ok := parseUint(lit[1:])
		return -int64(n), ok && n <= 1<<63
	}
	n, ok := parseUint(lit)
	return int64(n), ok && n <= math.MaxInt64
}

// The wire types' field names, in the order the decoders switch on.
var (
	requestFields  = []string{"id", "ops"}
	opFields       = []string{"op", "ks", "key", "val", "cmp"}
	responseFields = []string{"id", "ok", "guard", "reads", "err"}
)

// field returns the index of the name the key selects, or -1. Like
// encoding/json it matches case-insensitively under Unicode simple folding,
// so the Kelvin sign K stands for k and the long ſ for s.
func field(key []byte, names []string) int {
	for i, name := range names {
		if foldEqual(key, name) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether key folds to the lower-case ASCII name: ASCII
// letters fold to upper case, other runes to foldRune's pick.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		r, n := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(key[i:])
			r = foldRune(r)
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		if j == len(name) || r != rune(name[j]-'a'+'A') {
			return false
		}
		i += n
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's simple case-folding orbit, as
// encoding/json folds key runes outside ASCII.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// inPlace readies element i of a slice that is decoded in place. A repeated
// array key decodes into the slice the previous occurrence left, without
// zeroing it, so an element keeps the fields the later occurrence leaves
// out, and an element past a shorter occurrence's end but within a longer
// one's comes back. *hi counts the elements the line has written since the
// slice was last reset; beyond it, scratch from earlier lines is zeroed.
func inPlace[T any](elems []T, hi *int, i int) []T {
	if i == *hi {
		var zero T
		if i == len(elems) {
			elems = append(elems, zero)
		} else {
			elems[i] = zero
		}
		*hi++
	}
	return elems
}

// wireSlot is one element of a request's "ops" as decoded so far: the Op,
// plus the spellings of "op" and "cmp" that ParseOpCode and ParseCmp
// reject. Its zero value is the zero WireOp's, whose "" spellings are both
// rejected.
type wireSlot struct {
	Op
	opOK, cmpOK     bool
	opName, cmpName string
}

func (o *wireSlot) setOp(b []byte) {
	for c := OpRead; c <= OpCmp; c++ {
		if string(b) == c.String() {
			o.Code, o.opOK = c, true
			return
		}
	}
	o.opName, o.opOK = string(b), false
}

func (o *wireSlot) setCmp(b []byte) {
	for op := stm.Op(0); op.Valid(); op++ {
		if string(b) == cmpName(op) {
			o.Cmp, o.cmpOK = op, true
			return
		}
	}
	o.cmpName, o.cmpOK = string(b), false
}

// requestDecoder decodes request lines on one server connection.
type requestDecoder struct {
	s     wireScanner
	slots []wireSlot
	hi    int
}

// decode parses one request line into req, reusing req.Ops, and returns the
// line's id. It accepts what json.Unmarshal into a WireRequest followed by
// ParseOpCode/ParseCmp on each op accepts. A malformed line or a type
// mismatch returns id 0 and a "bad request: " error; an unknown op or
// comparison returns the line's id and ParseOpCode's or ParseCmp's error.
// A keyspace name costs one string; nothing else allocates once the
// connection's scratch has grown.
func (d *requestDecoder) decode(line []byte, req *Request) (uint64, error) {
	s := &d.s
	s.reset(line)
	var id uint64
	n := 0
	d.hi = 0
	switch s.peek() {
	case 'n':
		s.literal("null")
	case '{':
		s.open()
		for first := true; s.more(first); first = false {
			switch field(s.key(), requestFields) {
			case 0:
				s.uintValue(&id, "id")
			case 1:
				n = d.ops(n)
			default:
				s.skip()
			}
		}
	default:
		s.wrongType("the request")
	}
	if err := s.end(); err != nil {
		return 0, fmt.Errorf("bad request: %w", err)
	}
	req.Ops = req.Ops[:0]
	for i := range d.slots[:n] {
		o := &d.slots[i]
		if !o.opOK {
			_, err := ParseOpCode(o.opName)
			return id, err
		}
		op := o.Op
		if op.Code != OpCmp {
			op.Cmp = 0
		} else if !o.cmpOK {
			_, err := ParseCmp(o.cmpName)
			return id, err
		}
		req.Ops = append(req.Ops, op)
	}
	return id, nil
}

// ops decodes the value of "ops" into the slots; n is their count so far.
func (d *requestDecoder) ops(n int) int {
	s := &d.s
	switch s.peek() {
	case 'n':
		s.literal("null")
		d.hi = 0
		return 0
	case '[':
	default:
		s.wrongType("ops")
		return n
	}
	s.open()
	i := 0
	for first := true; s.more(first); first = false {
		d.slots = inPlace(d.slots, &d.hi, i)
		d.op(&d.slots[i])
		i++
	}
	if i == 0 {
		d.hi = 0
	}
	return i
}

// op decodes one element of "ops" into o.
func (d *requestDecoder) op(o *wireSlot) {
	s := &d.s
	switch s.peek() {
	case 'n':
		s.literal("null")
		return
	case '{':
	default:
		s.wrongType("an op")
		return
	}
	s.open()
	for first := true; s.more(first); first = false {
		switch field(s.key(), opFields) {
		case 0:
			if b, ok := s.strValue("op"); ok {
				o.setOp(b)
			}
		case 1:
			if b, ok := s.strValue("ks"); ok {
				o.Ks = string(b)
			}
		case 2:
			s.uintValue(&o.Key, "key")
		case 3:
			s.intValue(&o.Val, "val")
		case 4:
			if b, ok := s.strValue("cmp"); ok {
				o.setCmp(b)
			}
		default:
			s.skip()
		}
	}
}

// responseDecoder decodes response lines on one client connection.
type responseDecoder struct {
	s     wireScanner
	reads []int64
	hi    int
}

// decode parses one response line into the zero resp as json.Unmarshal
// does. resp.Reads is a fresh copy the caller may keep.
func (d *responseDecoder) decode(line []byte, resp *WireResponse) error {
	s := &d.s
	s.reset(line)
	n, reads := 0, false // reads: "reads" holds a non-nil slice
	d.hi = 0
	switch s.peek() {
	case 'n':
		s.literal("null")
	case '{':
		s.open()
		for first := true; s.more(first); first = false {
			switch field(s.key(), responseFields) {
			case 0:
				s.uintValue(&resp.ID, "id")
			case 1:
				s.boolValue(&resp.OK, "ok")
			case 2:
				s.boolValue(&resp.Guard, "guard")
			case 3:
				n, reads = d.readsValue(n, reads)
			case 4:
				if b, ok := s.strValue("err"); ok {
					resp.Err = string(b)
				}
			default:
				s.skip()
			}
		}
	default:
		s.wrongType("the response")
	}
	if err := s.end(); err != nil {
		return err
	}
	if reads {
		resp.Reads = append(make([]int64, 0, n), d.reads[:n]...)
	}
	return nil
}

// readsValue decodes the value of "reads" in place, as requestDecoder.ops.
func (d *responseDecoder) readsValue(n int, reads bool) (int, bool) {
	s := &d.s
	switch s.peek() {
	case 'n':
		s.literal("null")
		d.hi = 0
		return 0, false
	case '[':
	default:
		s.wrongType("reads")
		return n, reads
	}
	s.open()
	i := 0
	for first := true; s.more(first); first = false {
		d.reads = inPlace(d.reads, &d.hi, i)
		s.intValue(&d.reads[i], "a read")
		i++
	}
	if i == 0 {
		d.hi = 0
	}
	return i, true
}

// appendRequest appends the request line json.Encoder.Encode wrote for
// WireRequest{ID: id, Ops: ops}.
func appendRequest(b []byte, id uint64, ops []WireOp) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, id, 10)
	if ops == nil {
		return append(b, ",\"ops\":null}\n"...)
	}
	b = append(b, `,"ops":[`...)
	for i := range ops {
		o := &ops[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":`...)
		b = appendString(b, o.Op)
		if o.Ks != "" {
			b = append(b, `,"ks":`...)
			b = appendString(b, o.Ks)
		}
		b = append(b, `,"key":`...)
		b = strconv.AppendUint(b, o.Key, 10)
		if o.Val != 0 {
			b = append(b, `,"val":`...)
			b = strconv.AppendInt(b, o.Val, 10)
		}
		if o.Cmp != "" {
			b = append(b, `,"cmp":`...)
			b = appendString(b, o.Cmp)
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendResponse appends the response line json.Encoder.Encode wrote for r.
func appendResponse(b []byte, r *WireResponse) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = append(b, `,"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	b = append(b, `,"guard":`...)
	b = strconv.AppendBool(b, r.Guard)
	if len(r.Reads) > 0 {
		b = append(b, `,"reads":[`...)
		for i, v := range r.Reads {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ']')
	}
	if r.Err != "" {
		b = append(b, `,"err":`...)
		b = appendString(b, r.Err)
	}
	return append(b, "}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Encoder does by
// default: <, > and & escaped for HTML, U+2028 and U+2029 escaped, and each
// byte of invalid UTF-8 written as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
