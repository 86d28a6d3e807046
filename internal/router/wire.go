package router

import (
	"bytes"
	"encoding/json"
	"strconv"

	"banks"
)

// The shard answer line decoder. A shard's answer line carries the
// whole answer tree, but the merge needs four fields of it, and decoding
// the line with encoding/json (the line, then its answer object again)
// costs most of a routed cache hit's CPU. So a line is validated with
// json.Valid, and then one scan over it reads generated_ms, output_ms,
// the answer object's span and, inside it, root, score, edge_score and
// edges[].from/to. Numbers are parsed with the strconv calls
// encoding/json itself makes, so the values are bit-identical.
//
// The scan accepts only the canonical shape banksd writes: every key
// unescaped and from the expected set, none twice, the merge fields all
// present and of the right JSON type. Anything else — a trailer, an
// unknown or duplicate key, an escaped key, a null, an out-of-range
// number — makes decodeAnswerLine report false, and decodeShardLine
// decodes the line with json.Unmarshal instead. The fast path therefore
// changes which decoder reads a line, never whether it is accepted;
// FuzzShardLine checks that whatever the fast path accepts,
// json.Unmarshal accepts with the same fields.

// lineScanner walks a line that json.Valid has accepted.
type lineScanner struct {
	b []byte
	i int
}

func (s *lineScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c, after whitespace, reporting whether it was there.
func (s *lineScanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// stringEnd returns the index just past the string literal opening at
// s.i (a quote).
func (s *lineScanner) stringEnd() int {
	j := s.i + 1
	for {
		k := bytes.IndexByte(s.b[j:], '"')
		if k < 0 {
			return len(s.b) // unreachable on a valid line
		}
		j += k
		// The quote closes the string unless an odd run of backslashes
		// escapes it.
		bs := 0
		for p := j - 1; p > s.i && s.b[p] == '\\'; p-- {
			bs++
		}
		j++
		if bs%2 == 0 {
			return j
		}
	}
}

// key reads an object key and its colon. Keys holding an escape are
// refused: they may decode to one of the expected names.
func (s *lineScanner) key() ([]byte, bool) {
	k, ok := s.str()
	return k, ok && s.next(':')
}

// str reads a string literal's raw contents, refusing escapes.
func (s *lineScanner) str() ([]byte, bool) {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	end := s.stringEnd()
	v := s.b[s.i+1 : end-1]
	if bytes.IndexByte(v, '\\') >= 0 {
		return nil, false
	}
	s.i = end
	return v, true
}

// number reads a number literal. integer reports whether it has neither
// fraction nor exponent.
func (s *lineScanner) number() (lit []byte, integer, ok bool) {
	s.ws()
	start := s.i
	integer = true
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		if c == '.' || c == 'e' || c == 'E' || c == '+' {
			integer = false
		} else if c != '-' && (c < '0' || c > '9') {
			break
		}
	}
	if s.i == start || (s.b[start] != '-' && (s.b[start] < '0' || s.b[start] > '9')) {
		return nil, false, false
	}
	return s.b[start:s.i], integer, true
}

// float reads a number as encoding/json decodes it into a float64.
func (s *lineScanner) float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// int reads an integer literal as encoding/json decodes it into a
// signed integer of the given width.
func (s *lineScanner) int(bits int) (int64, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	return n, err == nil
}

// skip steps over any value.
func (s *lineScanner) skip() bool {
	s.ws()
	if s.i >= len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '"':
		s.i = s.stringEnd()
		return true
	case '{', '[':
		depth := 0
		for s.i < len(s.b) {
			c := s.b[s.i]
			if c == '"' {
				s.i = s.stringEnd()
				continue
			}
			s.i++
			switch c {
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return true
				}
			}
		}
		return false
	}
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return true
		}
		s.i++
	}
	return true
}

// members walks an object, calling member for each key with the scanner
// at its value. member consumes the value and returns the key's bit in
// seen, or -1 to refuse the object; a key met twice refuses it too.
func (s *lineScanner) members(member func(key []byte) int) (seen uint32, ok bool) {
	if !s.next('{') {
		return 0, false
	}
	if s.next('}') {
		return 0, true
	}
	for {
		k, ok := s.key()
		if !ok {
			return 0, false
		}
		bit := member(k)
		if bit < 0 || seen&(1<<bit) != 0 {
			return 0, false
		}
		seen |= 1 << bit
		if s.next('}') {
			return seen, true
		}
		if !s.next(',') {
			return 0, false
		}
	}
}

// decodeAnswerLine is the fast path for one shard stream line (see
// above). It reports false when the line is not a canonical answer line;
// the caller must then decode it the general way.
func decodeAnswerLine(line []byte, wa *wireAnswer) bool {
	s := lineScanner{b: line}
	seen, ok := s.members(func(k []byte) int {
		switch string(k) {
		case "type":
			if v, ok := s.str(); ok && string(v) == "answer" {
				return 0
			}
		case "rank":
			if _, ok := s.int(strconv.IntSize); ok {
				return 1
			}
		case "generated_ms":
			var ok bool
			if wa.generatedMS, ok = s.float(); ok {
				return 2
			}
		case "output_ms":
			var ok bool
			if wa.outputMS, ok = s.float(); ok {
				return 3
			}
		case "answer":
			s.ws()
			start := s.i
			if wa.key = decodeAnswerKey(&s); wa.key != nil {
				wa.raw = line[start:s.i]
				return 4
			}
		}
		return -1
	})
	s.ws()
	return ok && seen == 1<<5-1 && s.i == len(line)
}

// decodeAnswerKey reads the merge skeleton out of an answer object, or
// returns nil when the object is not in canonical shape.
func decodeAnswerKey(s *lineScanner) *banks.Answer {
	a := &banks.Answer{}
	seen, ok := s.members(func(k []byte) int {
		switch string(k) {
		case "root":
			n, ok := s.int(32)
			a.Root = banks.NodeID(n)
			return bitIf(ok, 0)
		case "score":
			var ok bool
			a.Score, ok = s.float()
			return bitIf(ok, 1)
		case "edge_score":
			var ok bool
			a.EdgeScore, ok = s.float()
			return bitIf(ok, 2)
		case "edges":
			return bitIf(decodeEdges(s, a), 3)
		case "root_label":
			return bitIf(s.skip(), 4)
		case "node_score":
			return bitIf(s.skip(), 5)
		case "nodes":
			return bitIf(s.skip(), 6)
		case "keyword_nodes":
			return bitIf(s.skip(), 7)
		case "path_weights":
			return bitIf(s.skip(), 8)
		}
		return -1
	})
	const need = 1<<4 - 1 // root, score, edge_score, edges
	if !ok || seen&need != need {
		return nil
	}
	return a
}

// decodeEdges reads the from/to pairs of an answer's edges array.
func decodeEdges(s *lineScanner, a *banks.Answer) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		var e banks.TreeEdge
		seen, ok := s.members(func(k []byte) int {
			switch string(k) {
			case "from":
				n, ok := s.int(32)
				e.From = banks.NodeID(n)
				return bitIf(ok, 0)
			case "to":
				n, ok := s.int(32)
				e.To = banks.NodeID(n)
				return bitIf(ok, 1)
			case "type":
				return bitIf(s.skip(), 2)
			case "forward":
				return bitIf(s.skip(), 3)
			case "weight":
				return bitIf(s.skip(), 4)
			}
			return -1
		})
		if !ok || seen&3 != 3 {
			return false
		}
		a.Edges = append(a.Edges, e)
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// bitIf returns bit when ok, else -1.
func bitIf(ok bool, bit int) int {
	if ok {
		return bit
	}
	return -1
}

// canonicalAnswer returns an answer object in the form json.Encoder
// writes a json.RawMessage: compact, with <, >, &, U+2028 and U+2029
// escaped. banksd's own bytes already are, and pass through as they are
// (the check is one scan); anything else is re-encoded the way the
// encoder would.
func canonicalAnswer(raw []byte) ([]byte, error) {
	if isCanonical(raw) {
		return raw, nil
	}
	return json.Marshal(json.RawMessage(raw))
}

// isCanonical reports whether encoding/json would write the valid JSON
// value raw unchanged as a json.RawMessage: no whitespace outside
// strings and nothing the encoder HTML-escapes.
func isCanonical(raw []byte) bool {
	inString := false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if !canonicalSpecial[c] {
			continue
		}
		switch c {
		case '"':
			inString = !inString
		case '\\':
			i++ // only inside strings in valid JSON; skips the escaped byte
		case ' ', '\t', '\n', '\r':
			if !inString {
				return false
			}
		case '<', '>', '&':
			return false
		case 0xE2: // U+2028 and U+2029 are E2 80 A8 and E2 80 A9
			if i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8 {
				return false
			}
		}
	}
	return true
}

// canonicalSpecial marks the bytes isCanonical has to look at.
var canonicalSpecial = [256]bool{
	'"': true, '\\': true, ' ': true, '\t': true, '\n': true, '\r': true,
	'<': true, '>': true, '&': true, 0xE2: true,
}
