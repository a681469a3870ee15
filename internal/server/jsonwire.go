package server

// JSON wire codec for /v1/multiply. The operand arrays ("a", "b", "c" in
// the request, "c" in the response) are almost all of a JSON body, so
// they bypass reflection: the request body is read into one pooled byte
// buffer, the top-level object is scanned once, and each operand's
// numbers are checked against the JSON number grammar and parsed with
// strconv.ParseFloat — the function encoding/json itself calls, so the
// values (and the content-address digests taken from them) are
// bit-identical to a reflection decode. The numbers land straight in
// pooled 64-byte-aligned buffers, the same storage the binary wire reads
// into. Every other member is copied verbatim into a small object and
// handed to json.Unmarshal, which keeps encoding/json's exact behaviour
// for the scalars: escaped keys, null, integer and overflow errors,
// unknown fields, and duplicate keys where the last one wins.
//
// Deliberate differences from json.Decoder.Decode into MultiplyRequest:
//   - an operand longer than maxDim² elements is refused with 413 before
//     any operand storage is drawn (its length is counted first);
//   - a null element inside the final occurrence of an operand array is
//     refused with 400: encoding/json stores it as 0 (or a stale value),
//     and JSON encoders write NaN and ±Inf as null, so accepting it would
//     slip non-finite operands past checkFinite.
//
// Bytes after the top-level value are ignored, as Decode ignores them.
//
// The response encoder writes the scalars through encoding/json and the
// "c" array through strconv.AppendFloat with encoding/json's float rules,
// so the body is byte-identical to json.NewEncoder(w).Encode(resp).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unsafe"
)

// ---------------------------------------------------------------------------
// Pooled byte buffers for request bodies and encoded responses.

// maxPooledJSONBuf keeps a rare MaxDim-sized body from pinning hundreds of
// megabytes in the pool; larger buffers are left to the GC.
const maxPooledJSONBuf = 64 << 20

// jsonPresizeMax caps how far a claimed Content-Length pre-sizes the body
// buffer, so a lying header cannot make the server allocate memory for
// bytes it never receives; larger bodies grow as they arrive.
const jsonPresizeMax = 16 << 20

var jsonBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getJSONBuf() *[]byte { return jsonBufPool.Get().(*[]byte) }

// putJSONBuf recycles b (the possibly regrown slice drawn as p).
func putJSONBuf(p *[]byte, b []byte) {
	if cap(b) > maxPooledJSONBuf {
		return
	}
	*p = b[:0]
	jsonBufPool.Put(p)
}

// readJSONBody appends all of r to buf. contentLength (-1 when unknown)
// pre-sizes the buffer, bounded by jsonPresizeMax.
func readJSONBody(r io.Reader, contentLength int64, buf []byte) ([]byte, error) {
	if contentLength > jsonPresizeMax {
		contentLength = jsonPresizeMax
	}
	if want := int(contentLength) + 1; contentLength >= 0 && cap(buf) < want {
		buf = make([]byte, 0, want) // +1: EOF arrives without a regrow
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// ---------------------------------------------------------------------------
// Request decode.

// jsonScanner walks a JSON text. Its methods validate the grammar as
// strictly as encoding/json's scanner, so a body this codec accepts is
// one json.Decoder would also parse.
type jsonScanner struct {
	data []byte
	off  int
}

func (p *jsonScanner) skipSpace() {
	for p.off < len(p.data) {
		switch p.data[p.off] {
		case ' ', '\t', '\n', '\r':
			p.off++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the data.
func (p *jsonScanner) peek() byte {
	if p.off < len(p.data) {
		return p.data[p.off]
	}
	return 0
}

func (p *jsonScanner) syntaxErr(what string) *wireError {
	if p.off >= len(p.data) {
		return badWire("bad request body: unexpected end of JSON input (%s)", what)
	}
	return badWire("bad request body: invalid character %q at offset %d (%s)", p.data[p.off], p.off, what)
}

// literal consumes lit ("true", "false" or "null").
func (p *jsonScanner) literal(lit string) *wireError {
	if len(p.data)-p.off < len(lit) || string(p.data[p.off:p.off+len(lit)]) != lit {
		return p.syntaxErr("in literal " + lit)
	}
	p.off += len(lit)
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes one number matching the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns its text.
func (p *jsonScanner) number() ([]byte, *wireError) {
	d, start := p.data, p.off
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	default:
		p.off = i
		return nil, p.syntaxErr("in numeric literal")
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || !isDigit(d[i]) {
			p.off = i
			return nil, p.syntaxErr("after decimal point in numeric literal")
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			p.off = i
			return nil, p.syntaxErr("in exponent of numeric literal")
		}
		for i++; i < len(d) && isDigit(d[i]); i++ {
		}
	}
	p.off = i
	return d[start:i], nil
}

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// str consumes one string and returns its raw text including the quotes,
// and whether it holds an escape sequence.
func (p *jsonScanner) str() (raw []byte, escaped bool, werr *wireError) {
	d, start := p.data, p.off
	if p.peek() != '"' {
		return nil, false, p.syntaxErr("looking for beginning of string")
	}
	for i := start + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			p.off = i + 1
			return d[start:p.off], escaped, nil
		case c == '\\':
			escaped = true
			i++
			if i >= len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(d) || !isHex(d[i+1]) || !isHex(d[i+2]) || !isHex(d[i+3]) || !isHex(d[i+4]) {
					p.off = i
					return nil, false, p.syntaxErr("in \\u hexadecimal character escape")
				}
				i += 4
			default:
				p.off = i
				return nil, false, p.syntaxErr("in string escape code")
			}
		case c < 0x20:
			p.off = i
			return nil, false, p.syntaxErr("in string literal")
		}
	}
	p.off = len(d)
	return nil, false, p.syntaxErr("in string literal")
}

// skipValue consumes one value of any type, validating its syntax. Nesting
// is tracked on an explicit stack, so hostile depth costs heap, not Go
// stack (encoding/json refuses depth beyond 10000 when the value reaches
// json.Unmarshal).
func (p *jsonScanner) skipValue() *wireError {
	var stackArr [32]byte
	stack := stackArr[:0] // the closing byte of each open container
	for {
		// A value.
		p.skipSpace()
		switch c := p.peek(); {
		case c == '{' || c == '[':
			end := c + 2 // '}' or ']'
			p.off++
			p.skipSpace()
			if p.peek() == end {
				p.off++
				break
			}
			stack = append(stack, end)
			if end == '}' {
				if _, _, werr := p.memberKey(); werr != nil {
					return werr
				}
			}
			continue
		case c == '"':
			if _, _, werr := p.str(); werr != nil {
				return werr
			}
		case c == '-' || isDigit(c):
			if _, werr := p.number(); werr != nil {
				return werr
			}
		case c == 't':
			if werr := p.literal("true"); werr != nil {
				return werr
			}
		case c == 'f':
			if werr := p.literal("false"); werr != nil {
				return werr
			}
		case c == 'n':
			if werr := p.literal("null"); werr != nil {
				return werr
			}
		default:
			return p.syntaxErr("looking for beginning of value")
		}
		// After a value: close containers until one continues with a comma.
		for {
			if len(stack) == 0 {
				return nil
			}
			p.skipSpace()
			end := stack[len(stack)-1]
			if c := p.peek(); c == end {
				p.off++
				stack = stack[:len(stack)-1]
				continue
			} else if c != ',' {
				return p.syntaxErr("after container element")
			}
			p.off++
			if end == '}' {
				if _, _, werr := p.memberKey(); werr != nil {
					return werr
				}
			}
			break
		}
	}
}

// memberKey consumes `"key" :` of an object member and returns the key
// as str does.
func (p *jsonScanner) memberKey() (raw []byte, escaped bool, werr *wireError) {
	p.skipSpace()
	if raw, escaped, werr = p.str(); werr != nil {
		return nil, false, werr
	}
	p.skipSpace()
	if p.peek() != ':' {
		return nil, false, p.syntaxErr("after object key")
	}
	p.off++
	return raw, escaped, nil
}

// operandIndex maps a member key onto the operand it fills: 0, 1 or 2
// for "a", "b" and "c", -1 for any other key. encoding/json matches keys
// case-insensitively after unescaping them; only ASCII letters fold onto
// a, b and c (TestJSONOperandKeyFolding pins that).
func operandIndex(raw []byte, escaped bool) int {
	key := raw[1 : len(raw)-1]
	if escaped {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return -1 // unreachable: str validated the escapes
		}
		key = []byte(s)
	}
	if len(key) != 1 {
		return -1
	}
	switch key[0] {
	case 'a', 'A':
		return 0
	case 'b', 'B':
		return 1
	case 'c', 'C':
		return 2
	}
	return -1
}

var operandNames = [3]byte{'a', 'b', 'c'}

// operand decodes one operand value: null, or an array of numbers into a
// buffer drawn from pool (nil for an empty array, whose slice is then
// non-nil and empty, as encoding/json leaves it). nullAt is the index of
// the first null element, or -1. The element count is taken before any
// storage is drawn, so an array beyond maxElems costs no memory.
func (p *jsonScanner) operand(idx, maxElems int, pool *bufPool) (vals []float64, buf *alignedBuf, nullAt int, werr *wireError) {
	name := operandNames[idx]
	nullAt = -1
	switch p.peek() {
	case 'n':
		return nil, nil, -1, p.literal("null")
	case '[':
	default:
		// encoding/json rejects any other value, with a type or a syntax
		// error; the operand is malformed either way.
		return nil, nil, -1, badWire("bad request body: operand %c must be an array of numbers", name)
	}
	p.off++
	p.skipSpace()
	if p.peek() == ']' {
		p.off++
		return []float64{}, nil, -1, nil
	}
	// For an array of numbers and nulls the commas before the first ']'
	// count its elements exactly; an array where they do not holds a
	// string, object or array element and is refused below before the
	// count runs out.
	rest := p.data[p.off:]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		end = len(rest)
	}
	n := bytes.Count(rest[:end], []byte{','}) + 1
	if n > maxElems {
		return nil, nil, -1, &wireError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("operand %c has more than %d elements (MaxDim²)", name, maxElems)}
	}
	buf = pool.get(n)
	dst := buf.data
	fail := func(werr *wireError) ([]float64, *alignedBuf, int, *wireError) {
		pool.put(buf)
		return nil, nil, -1, werr
	}
	for i := 0; ; i++ {
		p.skipSpace()
		if i == len(dst) {
			return fail(badWire("bad request body: operand %c element %d is not a number", name, i))
		}
		switch c := p.peek(); {
		case c == '-' || isDigit(c):
			text, werr := p.number()
			if werr != nil {
				return fail(werr)
			}
			v, err := strconv.ParseFloat(unsafe.String(&text[0], len(text)), 64)
			if err != nil {
				return fail(badWire("bad request body: operand %c element %d: %s out of float64 range", name, i, text))
			}
			dst[i] = v
		case c == 'n':
			if werr := p.literal("null"); werr != nil {
				return fail(werr)
			}
			dst[i] = 0
			if nullAt < 0 {
				nullAt = i
			}
		default:
			// A string, object, array or boolean element is a type error
			// to encoding/json, anything else a syntax error: malformed
			// either way.
			return fail(badWire("bad request body: operand %c element %d is not a number", name, i))
		}
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.off++
		case ']':
			p.off++
			return dst[:i+1], buf, nullAt, nil
		default:
			return fail(p.syntaxErr("after array element"))
		}
	}
}

// decodeJSONRequest decodes one JSON request body into wr, drawing operand
// storage from pool. wr.req must be zero. On error every buffer drawn is
// back in the pool and wr.bufs is empty.
func decodeJSONRequest(body []byte, maxDim int, pool *bufPool, wr *wireRequest) (werr *wireError) {
	defer func() {
		if werr == nil {
			return
		}
		for i, b := range wr.bufs {
			pool.put(b)
			wr.bufs[i] = nil
		}
		wr.req = MultiplyRequest{}
	}()
	p := jsonScanner{data: body}
	p.skipSpace()
	switch p.peek() {
	case '{':
	case 'n':
		// A top-level null decodes to the zero request (dims refuses it).
		return p.literal("null")
	default:
		return badWire("bad request body: want a JSON object")
	}
	p.off++

	maxElems := maxDim * maxDim
	ops := [3]*[]float64{&wr.req.A, &wr.req.B, &wr.req.C}
	nullAt := [3]int{-1, -1, -1}
	var rest []byte // the non-operand members, verbatim, as one object
	p.skipSpace()
	if p.peek() == '}' {
		p.off++
		return nil
	}
	for {
		p.skipSpace()
		memberStart := p.off
		raw, escaped, werr := p.memberKey()
		if werr != nil {
			return werr
		}
		p.skipSpace()
		if idx := operandIndex(raw, escaped); idx >= 0 {
			// A repeated key replaces the earlier value.
			pool.put(wr.bufs[idx])
			wr.bufs[idx] = nil
			vals, buf, nul, werr := p.operand(idx, maxElems, pool)
			if werr != nil {
				return werr
			}
			*ops[idx], wr.bufs[idx], nullAt[idx] = vals, buf, nul
		} else {
			if werr := p.skipValue(); werr != nil {
				return werr
			}
			if rest == nil {
				rest = append(make([]byte, 0, 256), '{')
			} else {
				rest = append(rest, ',')
			}
			rest = append(rest, body[memberStart:p.off]...)
		}
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.off++
			continue
		case '}':
			p.off++
		default:
			return p.syntaxErr("after object key:value pair")
		}
		break
	}
	for idx, at := range nullAt {
		if at >= 0 {
			return badWire("operand %c element %d is null (NaN and Inf are not valid operands)", operandNames[idx], at)
		}
	}
	if rest != nil {
		if err := json.Unmarshal(append(rest, '}'), &wr.req); err != nil {
			return badWire("bad request body: %v", err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Response encode.

// cNullMember is how encoding/json writes a nil "c" field. Inside an
// encoded string every quote is escaped, so the first match in a marshalled
// MultiplyResponse is the field itself.
var cNullMember = []byte(`,"c":null`)

// appendJSONResponse appends resp as json.NewEncoder(w).Encode(resp) writes
// it, trailing newline included. A non-finite value is an error, as it is
// for encoding/json, and leaves dst's contents unspecified.
func appendJSONResponse(dst []byte, resp *MultiplyResponse) ([]byte, error) {
	scalars := *resp
	scalars.C = nil
	head, err := json.Marshal(&scalars)
	if err != nil {
		return dst, err
	}
	i := bytes.Index(head, cNullMember) + len(cNullMember) - len("null")
	dst = append(dst, head[:i]...)
	if dst, err = appendJSONFloats(dst, resp.C); err != nil {
		return dst, err
	}
	dst = append(dst, head[i+len("null"):]...)
	return append(dst, '\n'), nil
}

// appendJSONFloats appends c as a JSON array ("null" when nil) using
// encoding/json's float format: the shortest 'f' text, switching to 'e'
// below 1e-6 and from 1e21, with a two-digit negative exponent trimmed
// ("e-07" becomes "e-7").
func appendJSONFloats(dst []byte, c []float64) ([]byte, error) {
	if c == nil {
		return append(dst, "null"...), nil
	}
	dst = slices.Grow(dst, 24*len(c)+2) // typical text width; append grows past it
	dst = append(dst, '[')
	for i, f := range c {
		if i > 0 {
			dst = append(dst, ',')
		}
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, f, format, -1, 64)
		if format == 'e' {
			if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
				dst[n-2] = dst[n-1]
				dst = dst[:n-1]
			}
		}
	}
	return append(dst, ']'), nil
}
