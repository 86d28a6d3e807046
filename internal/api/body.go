package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The search bodies (/v1/search, each /v1/batch result, the
// /v1/search/stream answer lines) are assembled by splicing answer
// objects that are already encoded between envelope pieces that
// encoding/json produces. The bytes are exactly what json.Encoder writes
// for the equivalent struct with the answers as nested values (or as
// compact json.RawMessage): member order, HTML escaping and float
// formatting all come from encoding/json or mirror it, and the serving
// packages pin the equality in byte-identity tests. What splicing saves
// is the per-request reflection over every answer and, for raw answers,
// the re-compaction encoding/json applies to each json.RawMessage.

// SearchHead is the envelope of a search body up to its answers.
type SearchHead struct {
	QueryID string `json:"query_id"`
	Algo    string `json:"algo"`
	K       int    `json:"k"`
	// Clamped lists request fields reduced by the tenant limits, so a
	// caller can tell "ran as asked" from "ran with caps applied".
	Clamped []string `json:"clamped,omitempty"`
	// Truncated reports that the deadline cut the search short: the
	// answers are a valid partial top-k prefix, not the complete answer.
	Truncated bool `json:"truncated"`
}

type encoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encoders = sync.Pool{New: func() any {
	e := &encoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// AppendJSON appends the encoding of v exactly as json.Encoder writes it
// (HTML-escaped), without the trailing newline. On error dst is returned
// unchanged.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return dst, err
	}
	b := e.buf.Bytes()
	return append(dst, b[:len(b)-1]...), nil
}

// AppendOpen appends the encoding of the struct v with its closing brace
// removed and, when v encoded any member, a comma: the caller continues
// the object with members of its own.
func AppendOpen(dst []byte, v any) ([]byte, error) {
	n := len(dst)
	dst, err := AppendJSON(dst, v)
	if err != nil {
		return dst, err
	}
	dst = dst[:len(dst)-1]
	if len(dst) > n+1 {
		dst = append(dst, ',')
	}
	return dst, nil
}

// AppendSearch appends one search body: head's members, then "answers"
// holding n answer objects, then "stats". answer appends answer i; it
// must append the object in the form json.Encoder writes it (compact,
// HTML-escaped), and the body is then byte-identical to encoding the
// whole response in one go. No trailing newline.
func AppendSearch(dst []byte, head *SearchHead, n int, answer func(dst []byte, i int) ([]byte, error), stats any) ([]byte, error) {
	start := len(dst)
	dst, err := AppendOpen(dst, head)
	if err != nil {
		return dst[:start], err
	}
	dst = append(dst, `"answers":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = answer(dst, i); err != nil {
			return dst[:start], err
		}
	}
	dst = append(dst, `],"stats":`...)
	if dst, err = AppendJSON(dst, stats); err != nil {
		return dst[:start], err
	}
	return append(dst, '}'), nil
}

// AppendAnswerLine appends one /v1/search/stream answer line, newline
// included: {"type":"answer","rank":…,"generated_ms":…,"output_ms":…,
// "answer":…} with the encoded answer object spliced in verbatim. The
// offsets must be finite.
func AppendAnswerLine(dst []byte, rank int, generatedMS, outputMS float64, answer []byte) []byte {
	dst = append(dst, `{"type":"answer","rank":`...)
	dst = strconv.AppendInt(dst, int64(rank), 10)
	dst = append(dst, `,"generated_ms":`...)
	dst = AppendFloat(dst, generatedMS)
	dst = append(dst, `,"output_ms":`...)
	dst = AppendFloat(dst, outputMS)
	dst = append(dst, `,"answer":`...)
	dst = append(dst, answer...)
	return append(dst, "}\n"...)
}

// AppendFloat appends a finite float64 the way encoding/json formats it:
// the shortest representation that round-trips, in exponent form only
// below 1e-6 or from 1e21 on, with the exponent unpadded.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// maxPooledBody bounds the response buffers kept for reuse, so one huge
// response does not pin its buffer in the pool.
const maxPooledBody = 1 << 20

var bodies = sync.Pool{New: func() any { return new([]byte) }}

// GetBody returns an empty buffer for assembling a response body, from a
// pool; PutBody hands it back.
func GetBody() *[]byte {
	b := bodies.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBody returns a buffer from GetBody to the pool. Whoever grew the
// buffer must store the grown slice back through the pointer first.
func PutBody(b *[]byte) {
	if cap(*b) <= maxPooledBody {
		bodies.Put(b)
	}
}

// WriteBody assembles a response body with build, in a pooled buffer,
// and writes it to w in one call under the given content type. When
// build fails nothing is written. The error is build's or the write's.
func WriteBody(w http.ResponseWriter, contentType string, build func([]byte) ([]byte, error)) error {
	buf := GetBody()
	defer PutBody(buf)
	w.Header().Set("Content-Type", contentType)
	b, err := build(*buf)
	*buf = b
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
