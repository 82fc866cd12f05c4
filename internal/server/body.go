package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/bufpool"
	"repro/internal/geom"
)

// The one body path of the two point-bearing POSTs (/api/v1/jobs and
// /api/v1/streams/{id}/points): the body is read whole, under the byte
// limit Handler put on it, into a pooled buffer; the top-level object is
// walked by hand; and the points array is scanned in place straight into
// []geom.Point. Every other member is handed to encoding/json over its
// own few bytes.
//
// The scanner accepts the language encoding/json accepts for
//
//	struct {
//		...scalar members...
//		Points []struct{ ID uint64; X, Y float64 } `json:"points"`
//	}
//
// and yields bit-identical values (FuzzPointsBody holds it to that):
// names match case-insensitively and after unescaping, unknown members
// are validated and skipped, the last of a repeated scalar wins, null
// leaves the zero value (a null element is a zero point), a number's
// value is built in the pass that checks it against the JSON grammar and
// converted as strconv converts it — the exact small-power path, then
// Eisel–Lemire, then strconv.ParseFloat(…, 64) or ParseUint(…, 10, 64)
// only for what those decline (number.go) — nesting deeper than
// 10 000 is refused, and bytes after the top-level value are ignored as
// Decoder.Decode ignores them. The one divergence: a repeated points
// member is refused (encoding/json decodes the second array over the
// first, element by element).

const (
	// maxPointBytes is the longest a canonical point object gets —
	// {"id":18446744073709551615,"x":-1.7976931348623157e+308,"y":…} and
	// its comma are 86 bytes — rounded up to leave room for indentation.
	maxPointBytes = 96
	// minPointBytes is the shortest canonical point, {"id":0,"x":0,"y":0}
	// and its comma.
	minPointBytes = 21
	// bodyOverhead is the byte limit's allowance for everything around
	// the points array.
	bodyOverhead = 64 << 10
	// createStreamLimit bounds the point-free POST /streams body.
	createStreamLimit = 1 << 20
	// maxDatasetPoints is the most a dataset request may ask for.
	maxDatasetPoints = 10_000_000
	// maxDepth is encoding/json's nesting limit.
	maxDepth = 10000
)

// pointsLimit is the most points one body may carry: more than the
// tenant's whole quota could never be admitted. A disabled quota leaves
// the ceiling dataset requests already have.
func (s *Server) pointsLimit() int {
	if s.cfg.TenantQuota > 0 && s.cfg.TenantQuota < maxDatasetPoints {
		return int(s.cfg.TenantQuota)
	}
	return maxDatasetPoints
}

// bodyLimit is the byte limit of a point-bearing POST: pointsLimit
// points at their longest, plus the overhead allowance.
func (s *Server) bodyLimit() int64 {
	return int64(s.pointsLimit())*maxPointBytes + bodyOverhead
}

// limited puts limit on a POST's body. A body that declares itself
// larger is refused unread; one that turns out larger fails the read
// that crosses the limit, and either way the answer is 413 too_large.
func limited(limit int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > limit {
			refuse(w, &http.MaxBytesError{Limit: limit})
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		h(w, r)
	}
}

// readBody reads the whole (already limited) body into a buffer from
// bufpool.Bytes, sized from Content-Length when there is one; its size
// classes keep a small job's body from taking a bulk one's buffer. The
// caller hands the buffer back with releaseBody once it is done with the
// bytes. Nothing decoded from a buffer refers to it: numbers are parsed,
// strings copied by encoding/json.
func readBody(r *http.Request) ([]byte, error) {
	var b []byte
	var err error
	if n := r.ContentLength; n >= 0 {
		b = bufpool.Bytes.Get(int(n))
		_, err = io.ReadFull(r.Body, b)
	} else {
		for err == nil {
			if len(b) == cap(b) {
				grown := bufpool.Bytes.Get(max(2*len(b), 32<<10))
				grown = grown[:copy(grown, b)]
				releaseBody(b)
				b = grown
			}
			var n int
			n, err = r.Body.Read(b[len(b):cap(b)])
			b = b[:len(b)+n]
		}
		if err == io.EOF {
			err = nil
		}
	}
	if err != nil {
		releaseBody(b)
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return b, nil
}

func releaseBody(b []byte) { bufpool.Bytes.Put(b) }

var (
	errRepeatedPoints = errors.New("invalid JSON: points member given twice")
	errTooManyPoints  = fmt.Errorf("%w: body holds more points than a tenant's whole quota", ErrQuotaExceeded)
)

// object walks one JSON object member by member:
//
//	for o.next() {
//		switch {
//		case o.keyIs("eps"):
//			o.float(&eps)
//		}
//	}
//	if o.err != nil { … }
//
// Each pass of the loop consumes the member's value with at most one of
// skip, float, uint, decode or points; a value left alone is validated
// and skipped. The first error sticks and ends the loop.
type object struct {
	b     []byte
	i     int // read position
	depth int // this object's nesting depth, counted as encoding/json does
	key   []byte
	val   int  // where the current member's value starts
	open  bool // the brace has been read
	err   error
	// havePoints is set once points has run.
	havePoints bool
	// num is the value of the last number scanned.
	num decimal
}

func (o *object) syntax(what string) {
	if o.err != nil {
		return
	}
	if o.i >= len(o.b) {
		o.err = fmt.Errorf("invalid JSON: unexpected end of input %s", what)
		return
	}
	o.err = fmt.Errorf("invalid JSON: unexpected %q at offset %d %s", o.b[o.i], o.i, what)
}

func (o *object) skipSpace() {
	for o.i < len(o.b) && o.b[o.i] <= ' ' {
		switch o.b[o.i] {
		case ' ', '\t', '\r', '\n':
			o.i++
		default:
			return
		}
	}
}

// peek is the byte at the read position, 0 at the end of input (no JSON
// token starts with a zero byte).
func (o *object) peek() byte {
	if o.i < len(o.b) {
		return o.b[o.i]
	}
	return 0
}

// literal consumes word if the input continues with it.
func (o *object) literal(word string) bool {
	if len(o.b)-o.i >= len(word) && o.b[o.i] == word[0] && string(o.b[o.i:o.i+len(word)]) == word {
		o.i += len(word)
		return true
	}
	return false
}

// next moves to the following member and reports whether there is one.
// The first call reads the opening brace; a null in its place is an
// object without members, as it is to encoding/json.
func (o *object) next() bool {
	if o.err != nil {
		return false
	}
	if !o.open {
		o.skipSpace()
		if o.literal("null") {
			return false
		}
		if o.peek() != '{' {
			o.syntax("looking for an object")
			return false
		}
		o.i++
		o.open = true
		o.skipSpace()
		if o.peek() == '}' {
			o.i++
			return false
		}
	} else {
		if o.i == o.val {
			if o.skip(); o.err != nil {
				return false
			}
		}
		o.skipSpace()
		switch o.peek() {
		case ',':
			o.i++
			o.skipSpace()
		case '}':
			o.i++
			return false
		default:
			o.syntax("after an object member")
			return false
		}
	}
	if o.peek() != '"' {
		o.syntax("looking for a member name")
		return false
	}
	raw, escaped := o.str()
	if o.err != nil {
		return false
	}
	o.key = raw[1 : len(raw)-1]
	if escaped {
		var name string
		if err := json.Unmarshal(raw, &name); err != nil {
			o.err = err
			return false
		}
		o.key = []byte(name)
	}
	o.skipSpace()
	if o.peek() != ':' {
		o.syntax("after a member name")
		return false
	}
	o.i++
	o.skipSpace()
	o.val = o.i
	return true
}

// keyIs reports whether the current member is the one encoding/json
// would store in a field tagged name (ASCII): equal under Unicode case
// folding. An unescaped name is compared as it stands — bytes that are
// not UTF-8 never fold to the ASCII of a field name. A key of the name's
// length matches only in ASCII, since a rune folding into ASCII from
// outside it (K, ſ) is longer than its fold.
func (o *object) keyIs(name string) bool {
	key := o.key
	if len(key) != len(name) {
		return len(key) > len(name) && strings.EqualFold(string(key), name)
	}
	for i := 0; i < len(name); i++ {
		if c, n := key[i], name[i]; c != n && (c|0x20 != n|0x20 || n|0x20 < 'a' || n|0x20 > 'z') {
			return false
		}
	}
	return true
}

// str consumes the string at the read position, quotes included, and
// reports whether it holds an escape.
func (o *object) str() (raw []byte, escaped bool) {
	b, start := o.b, o.i
	for i := start + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			o.i = i + 1
			return b[start:o.i], escaped
		case c == '\\':
			escaped = true
			if i++; i < len(b) && b[i] == 'u' {
				for k := 0; k < 4; k++ {
					if i++; i >= len(b) || !isHex(b[i]) {
						o.i = i
						o.syntax("in a \\u escape")
						return nil, false
					}
				}
			} else if i >= len(b) || !strings.ContainsRune(`bfnrt\/"`, rune(b[i])) {
				o.i = i
				o.syntax("in a string escape")
				return nil, false
			}
		case c < 0x20:
			o.i = i
			o.syntax("in a string")
			return nil, false
		}
	}
	o.i = len(b)
	o.syntax("in a string")
	return nil, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes the JSON number at the read position and returns its
// bytes: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. In the same pass
// it builds the number's value as strconv's readFloat does — leading
// zeros skipped, the first 19 significant digits folded into the
// mantissa, the exponent accumulator held below 10⁵ — and leaves it in
// o.num. What follows it is the caller's to judge.
func (o *object) number() []byte {
	b, i := o.b, o.i
	var (
		mant uint64
		neg  bool
		nd   int // significant digits, whether kept or not
	)
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	what := ""
	if i < len(b) && b[i] == '0' {
		i++
	} else if i, mant, nd = foldDigits(b, i, 0, 0); nd == 0 {
		what = "in a number"
	}
	// dp is the decimal point's position, counted in digits from the
	// first significant one (strconv's dp).
	dp := nd
	plain := !neg
	if what == "" && i < len(b) && b[i] == '.' {
		plain = false
		i++
		from := i
		if nd == 0 {
			for ; i < len(b) && b[i] == '0'; i++ {
				dp--
			}
		}
		if i, mant, nd = foldDigits(b, i, mant, nd); i == from {
			what = "after a decimal point"
		}
	}
	if what == "" && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		plain = false
		eneg := false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		from, e := i, 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == from {
			what = "in an exponent"
		}
		if eneg {
			e = -e
		}
		dp += e
	}
	start := o.i
	o.i = i
	if what != "" {
		o.syntax(what)
		return nil
	}
	exp := 0
	if mant != 0 {
		exp = dp - min(nd, maxMantDigits)
	}
	o.num = decimal{mant: mant, exp: exp, neg: neg, trunc: nd > maxMantDigits, plain: plain}
	return b[start:i]
}

// skip validates and consumes the value at the read position.
func (o *object) skip() {
	if o.err == nil {
		o.skipValue(o.depth)
	}
}

// skipValue consumes one value of any kind nested inside depth levels.
func (o *object) skipValue(depth int) {
	switch c := o.peek(); {
	case c == '"':
		o.str()
	case c == '-' || isDigit(c):
		o.number()
	case c == '{' || c == '[':
		if depth++; depth > maxDepth {
			o.err = errors.New("invalid JSON: exceeded max depth")
			return
		}
		if c == '{' {
			// Members left alone are skipped by the walker itself.
			in := object{b: o.b, i: o.i, depth: depth}
			for in.next() {
			}
			o.i, o.err = in.i, in.err
			return
		}
		o.i++
		o.skipSpace()
		if o.peek() == ']' {
			o.i++
			return
		}
		for {
			o.skipValue(depth)
			o.skipSpace()
			if o.err != nil {
				return
			}
			switch o.peek() {
			case ',':
				o.i++
				o.skipSpace()
			case ']':
				o.i++
				return
			default:
				o.syntax("after an array element")
				return
			}
		}
	case o.literal("true"), o.literal("false"), o.literal("null"):
	default:
		o.syntax("looking for a value")
	}
}

// mismatch refuses a value of the wrong JSON type for its member, after
// validating it so that the message names the first thing wrong.
func (o *object) mismatch(want string) {
	start := o.i
	o.skip()
	if o.err == nil {
		o.err = fmt.Errorf("invalid JSON: member %q at offset %d is not %s", o.key, start, want)
	}
}

// numberValue consumes the member's value and returns its bytes if it
// is a number, its value left in o.num; null gives nil, anything else is
// refused.
func (o *object) numberValue(want string) []byte {
	if o.err != nil || o.literal("null") {
		return nil
	}
	if c := o.peek(); c != '-' && !isDigit(c) {
		o.mismatch(want)
		return nil
	}
	return o.number()
}

// float stores the member's number in v; null leaves v alone.
func (o *object) float(v *float64) {
	num := o.numberValue("a number")
	if num == nil {
		return
	}
	f, ok := o.num.float64()
	if !ok {
		var err error
		if f, err = strconv.ParseFloat(string(num), 64); err != nil {
			o.err = fmt.Errorf("invalid JSON: member %q: %w", o.key, err)
			return
		}
	}
	*v = f
}

// uint stores the member's non-negative integer in v; null leaves v
// alone. Like encoding/json it takes digits only: 1.0 and 1e3 are
// refused. Up to 19 digits are the scan's mantissa; ParseUint judges the
// rest, overflow included.
func (o *object) uint(v *uint64) {
	num := o.numberValue("an unsigned integer")
	if num == nil {
		return
	}
	if o.num.plain && len(num) <= maxMantDigits {
		*v = o.num.mant
		return
	}
	u, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		o.err = fmt.Errorf("invalid JSON: member %q: %w", o.key, err)
		return
	}
	*v = u
}

// decode hands the member's value to encoding/json.
func (o *object) decode(v any) {
	if o.err != nil {
		return
	}
	start := o.i
	o.skip()
	if o.err != nil {
		return
	}
	if err := json.Unmarshal(o.b[start:o.i], v); err != nil {
		o.err = fmt.Errorf("invalid JSON: member %q: %w", o.key, err)
	}
}

// points scans the member's array of {"id","x","y"} objects straight
// into a slice of at most limit points; null gives none. Capacity comes
// from the opening braces left in the body, which is the point count
// exactly when points is the last member and its elements are flat, and
// is capped by what that many bytes could hold in canonical form — so a
// hostile body cannot reserve more than it sent.
func (o *object) points(limit int) []geom.Point {
	if o.err != nil {
		return nil
	}
	if o.havePoints {
		o.err = errRepeatedPoints
		return nil
	}
	o.havePoints = true
	if o.literal("null") {
		return nil
	}
	if o.peek() != '[' {
		o.mismatch("an array")
		return nil
	}
	o.i++
	o.skipSpace()
	if o.peek() == ']' {
		o.i++
		return nil
	}
	rest := o.b[o.i:]
	pts := make([]geom.Point, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/minPointBytes+1, limit))
	el := object{b: o.b, depth: o.depth + 2}
	for {
		if len(pts) == limit {
			o.err = errTooManyPoints
			return nil
		}
		pts = append(pts, geom.Point{})
		p := &pts[len(pts)-1]
		el.i, el.open = o.i, false
		for el.next() {
			switch {
			case el.keyIs("id"):
				el.uint(&p.ID)
			case el.keyIs("x"):
				el.float(&p.X)
			case el.keyIs("y"):
				el.float(&p.Y)
			}
		}
		if o.i = el.i; el.err != nil {
			o.err = el.err
			return nil
		}
		o.skipSpace()
		switch o.peek() {
		case ',':
			o.i++
			o.skipSpace()
		case ']':
			o.i++
			return pts
		default:
			o.syntax("after a point")
			return nil
		}
	}
}
