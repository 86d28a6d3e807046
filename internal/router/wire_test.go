package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"banks"
	"banks/internal/relational"
	"banks/internal/server"
)

// The routed response shapes, encoded in one json.Encoder call with the
// answers as json.RawMessage: the reference the spliced writers
// (appendSearch, appendStream, appendBatch) must match byte for byte.

type refSearchResponse struct {
	QueryID   string            `json:"query_id"`
	Algo      string            `json:"algo"`
	K         int               `json:"k"`
	Clamped   []string          `json:"clamped,omitempty"`
	Truncated bool              `json:"truncated"`
	Answers   []json.RawMessage `json:"answers"`
	Stats     routedStats       `json:"stats"`
}

type refStreamAnswerLine struct {
	Type        string          `json:"type"`
	Rank        int             `json:"rank"`
	GeneratedMS float64         `json:"generated_ms"`
	OutputMS    float64         `json:"output_ms"`
	Answer      json.RawMessage `json:"answer"`
}

type refBatchResponse struct {
	Results []*refSearchResponse `json:"results"`
	Errors  []*errorJSON         `json:"errors"`
}

// refDecodeShardLine is the reference shard line decoder: two
// json.Unmarshal calls, the answer object kept as the shard sent it.
func refDecodeShardLine(line []byte) (*wireAnswer, *shardLine, error) {
	var sl shardLine
	if err := json.Unmarshal(line, &sl); err != nil {
		return nil, nil, fmt.Errorf("malformed stream line: %w", err)
	}
	switch sl.Type {
	case "answer":
		var key answerKey
		if err := json.Unmarshal(sl.Answer, &key); err != nil {
			return nil, nil, fmt.Errorf("malformed answer object: %w", err)
		}
		skel := &banks.Answer{Root: key.Root, Score: key.Score, EdgeScore: key.EdgeScore}
		for _, e := range key.Edges {
			skel.Edges = append(skel.Edges, banks.TreeEdge{From: e.From, To: e.To})
		}
		return &wireAnswer{generatedMS: sl.GeneratedMS, outputMS: sl.OutputMS, raw: sl.Answer, key: skel}, nil, nil
	case "trailer":
		return nil, &sl, nil
	}
	return nil, nil, fmt.Errorf("unknown stream line type %q", sl.Type)
}

func encodeRef(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameFloat compares float64 bits.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSameDecode fails unless decodeShardLine agrees with the reference
// decoder on line: both reject it, or both accept it with bit-identical
// fields, the answer bytes being what the encoder writes for the shard's.
func checkSameDecode(t testing.TB, line []byte) {
	t.Helper()
	wa, tr, err := decodeShardLine(line)
	rwa, rtr, rerr := refDecodeShardLine(line)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("line %q: error %v, reference error %v", line, err, rerr)
	}
	if err != nil {
		return
	}
	if (tr == nil) != (rtr == nil) || (wa == nil) != (rwa == nil) {
		t.Fatalf("line %q: decoded as a different line kind", line)
	}
	if wa == nil {
		return
	}
	want, err := json.Marshal(json.RawMessage(rwa.raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa.raw, want) {
		t.Fatalf("line %q: answer bytes %q, encoder writes %q", line, wa.raw, want)
	}
	if !sameFloat(wa.generatedMS, rwa.generatedMS) || !sameFloat(wa.outputMS, rwa.outputMS) {
		t.Fatalf("line %q: offsets %v/%v, reference %v/%v", line, wa.generatedMS, wa.outputMS, rwa.generatedMS, rwa.outputMS)
	}
	k, rk := wa.key, rwa.key
	if k.Root != rk.Root || !sameFloat(k.Score, rk.Score) || !sameFloat(k.EdgeScore, rk.EdgeScore) || len(k.Edges) != len(rk.Edges) {
		t.Fatalf("line %q: key %+v, reference %+v", line, k, rk)
	}
	for i := range k.Edges {
		if k.Edges[i] != rk.Edges[i] {
			t.Fatalf("line %q: edge %d %+v, reference %+v", line, i, k.Edges[i], rk.Edges[i])
		}
	}
}

// canonicalLine is an answer line as banksd writes it.
const canonicalLine = `{"type":"answer","rank":1,"generated_ms":0.1234,"output_ms":1.5e-7,"answer":` +
	`{"root":7,"root_label":"paper: Transaction \u003crecovery\u003e \u0026 logs\u2028","score":0.4127659574468085,` +
	`"edge_score":1.4226,"node_score":3,"nodes":[{"id":7,"label":"paper: x"},{"id":2,"label":"author: \"q\" \\ y"}],` +
	`"edges":[{"from":7,"to":2,"type":"writes","forward":true,"weight":1},{"from":7,"to":9,"forward":false,"weight":2.5}],` +
	`"keyword_nodes":[2,9],"path_weights":[1,2.5]}}`

// shardLineSeeds covers the canonical line and each way a line can
// leave the fast path.
var shardLineSeeds = []string{
	canonicalLine,
	// Whitespace everywhere, and raw characters the encoder escapes.
	"{ \"type\" : \"answer\" ,\t\"rank\":2, \"generated_ms\": 1 ,\"output_ms\":2,\"answer\": { \"root\" : 3 , \"root_label\":\"a <b> & c  \" , \"score\":1, \"edge_score\":0 , \"edges\" : [ ] } } ",
	// One raw character the encoder escapes at a time.
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"root_label":"a & b","score":1,"edge_score":1,"edges":[]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"root_label":"a > b","score":1,"edge_score":1,"edges":[]}}`,
	"{\"type\":\"answer\",\"rank\":1,\"generated_ms\":1,\"output_ms\":1,\"answer\":{\"root\":1,\"root_label\":\"a \u2029\",\"score\":1,\"edge_score\":1,\"edges\":[]}}",
	// Members in another order, with no edges.
	`{"answer":{"edges":[],"edge_score":2,"score":0.5,"root":-4},"output_ms":3,"generated_ms":1,"rank":9,"type":"answer"}`,
	// Fallbacks: trailer, escaped key, escaped value, unknown key,
	// case-folded key, duplicate key, null, out-of-range and non-integer
	// numbers, missing fields, wrong types.
	`{"type":"trailer","query_id":"q-1","algo":"bidirectional","k":10,"truncated":false,"answers":1,"stats":{"nodes_explored":3}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"r\u006fot":1,"score":1,"edge_score":1,"edges":[]}}`,
	`{"type":"answ\u0065r","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"score":1,"edge_score":1,"edges":[]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"score":1,"edge_score":1,"edges":[],"extra":[1]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"Root":1,"score":1,"edge_score":1,"edges":[]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"root":2,"score":1,"edge_score":1,"edges":[]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":null,"score":1,"edge_score":1,"edges":[]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"score":1,"edge_score":1,"edges":null}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":4294967296,"score":1,"edge_score":1,"edges":[]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1.0,"score":1,"edge_score":1,"edges":[]}}`,
	`{"type":"answer","rank":1,"generated_ms":1e400,"output_ms":1,"answer":{"root":1,"score":1,"edge_score":1,"edges":[]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"score":"1","edge_score":1,"edges":[]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"score":1,"edge_score":1,"edges":[{"from":1}]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"score":1,"edges":[]}}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":null}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1}`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"score":1,"edge_score":1,"edges":[]}} x`,
	`{"type":"answer","rank":1,"generated_ms":1,"output_ms":1,"answer":{"root":1,"score":1,"edge_score":1,"edges":[]}`,
	`{"type":"mystery"}`,
	`[]`,
}

func TestShardLineSeeds(t *testing.T) {
	for _, line := range shardLineSeeds {
		checkSameDecode(t, []byte(line))
	}
	var wa wireAnswer
	if !decodeAnswerLine([]byte(canonicalLine), &wa) {
		t.Fatal("the canonical answer line missed the fast path")
	}
	if !isCanonical(wa.raw) {
		t.Fatal("banksd's answer bytes are not recognized as canonical")
	}
}

// FuzzShardLine: whatever the fast path accepts, json.Unmarshal accepts
// with bit-identical fields, and decodeShardLine as a whole accepts and
// rejects exactly the lines the reference decoder does. A valid value
// isCanonical calls canonical is one the encoder writes unchanged.
func FuzzShardLine(f *testing.F) {
	for _, s := range shardLineSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkSameDecode(t, line)
		if json.Valid(line) && isCanonical(line) {
			enc, err := json.Marshal(json.RawMessage(line))
			if err != nil || !bytes.Equal(enc, line) {
				t.Fatalf("%q called canonical, but the encoder writes %q (%v)", line, enc, err)
			}
		}
	})
}

// routedFixture is a gathered fan-out over three shards whose answer
// bytes are partly canonical, partly not (whitespace, raw <, >, &,
// U+2028), so both the pass-through and the re-encoding are exercised.
func routedFixture(t *testing.T) (results, refResults []*shardResult) {
	t.Helper()
	lines := [][]string{
		{
			canonicalLine,
			`{"type":"answer","rank":2,"generated_ms":0.5,"output_ms":0.75,"answer":{"root":11,"root_label":"a <b> & c` + " " + `","score":0.25,"edge_score":3,"edges":[{"from":11,"to":12}]}}`,
		},
		{
			`{"type":"answer","rank":1,"generated_ms":2,"output_ms":2.5,"answer": {"root": 20, "root_label": "spaced  out", "score": 0.4127659574468085, "edge_score": 1, "edges": []}}`,
			`{"type":"answer","rank":2,"generated_ms":3,"output_ms":4,"answer":{"root":7,"score":0.1,"edge_score":9,"edges":[{"from":7,"to":2},{"from":7,"to":9}]}}`,
		},
		{},
	}
	trailers := []string{
		`{"type":"trailer","query_id":"q-<1>","algo":"si-backward","k":3,"clamped":["k"],"truncated":false,"cached":true,"answers":2,"stats":{"nodes_explored":5,"duration_ms":1.25}}`,
		`{"type":"trailer","query_id":"q-<1>","algo":"si-backward","k":3,"clamped":["k"],"truncated":true,"cached":true,"answers":2,"stats":{"nodes_explored":6,"duration_ms":0.5}}`,
		`{"type":"trailer","query_id":"q-<1>","algo":"si-backward","k":3,"clamped":["k"],"truncated":false,"answers":0,"stats":{}}`,
	}
	for s := range lines {
		res := &shardResult{shard: s, retried: s % 2, lagRecords: int64(s)}
		ref := &shardResult{shard: s, retried: s % 2, lagRecords: int64(s)}
		for _, l := range append(lines[s], trailers[s]) {
			wa, tr, err := decodeShardLine([]byte(l))
			rwa, rtr, rerr := refDecodeShardLine([]byte(l))
			if err != nil || rerr != nil {
				t.Fatalf("%s: %v / %v", l, err, rerr)
			}
			if wa != nil {
				res.answers = append(res.answers, wa)
				ref.answers = append(ref.answers, rwa)
			}
			if tr != nil {
				res.trailer, ref.trailer = tr, rtr
			}
		}
		results = append(results, res)
		refResults = append(refResults, ref)
	}
	return results, refResults
}

func refSearch(results []*shardResult) *refSearchResponse {
	agg := aggregate(results)
	merged := mergeResults(results)
	answers := make([]json.RawMessage, len(merged))
	for i, wa := range merged {
		answers[i] = wa.raw
	}
	return &refSearchResponse{
		QueryID: agg.queryID, Algo: agg.algo, K: agg.k, Clamped: agg.clamped, Truncated: agg.truncated,
		Answers: answers, Stats: agg.routedStats(len(results)),
	}
}

// TestRoutedWritersMatchEncoder pins the spliced routed writers to the
// json.Encoder reference byte for byte.
func TestRoutedWritersMatchEncoder(t *testing.T) {
	results, refResults := routedFixture(t)
	agg := aggregate(results)
	merged := mergeResults(results)
	if len(merged) != 3 {
		t.Fatalf("merged %d answers, want 3", len(merged))
	}

	got, err := appendSearch(nil, agg, len(results), merged)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeRef(t, refSearch(refResults)); !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("search body differs from the encoder's\n got %s\nwant %s", got, want)
	}

	got, err = appendStream(nil, agg, len(results), merged)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i, wa := range mergeResults(refResults) {
		want = append(want, encodeRef(t, refStreamAnswerLine{
			Type: "answer", Rank: i + 1, GeneratedMS: wa.generatedMS, OutputMS: wa.outputMS, Answer: wa.raw,
		})...)
	}
	first := merged[0].outputMS
	want = append(want, encodeRef(t, streamTrailerLine{
		Type: "trailer", QueryID: agg.queryID, Algo: agg.algo, K: agg.k, Clamped: agg.clamped,
		Truncated: agg.truncated, Cached: agg.cached, Degraded: agg.degraded, Answers: len(merged),
		FirstAnswerMS: &first, Stats: agg.routedStats(len(results)),
	})...)
	if !bytes.Equal(got, want) {
		t.Fatalf("stream body differs from the encoder's\n got %s\nwant %s", got, want)
	}

	detail := errorJSON{Code: "shard_error", Detail: "shard 1: <gone> & done", Status: 502, Message: "shard 1: <gone> & done"}
	elems := []*routedElem{{agg: agg, shards: len(results), merged: merged}, nil, {agg: agg, shards: len(results), merged: merged}}
	got, err = appendBatch(nil, elems, []*errorJSON{nil, &detail, nil})
	if err != nil {
		t.Fatal(err)
	}
	ref := refSearch(refResults)
	want = encodeRef(t, refBatchResponse{
		Results: []*refSearchResponse{ref, nil, ref},
		Errors:  []*errorJSON{nil, &detail, nil},
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("batch body differs from the encoder's\n got %s\nwant %s", got, want)
	}
}

// TestDecodeShardHTTPError: the router reads the v1 error fields and
// falls back to the legacy mirror for the text.
func TestDecodeShardHTTPError(t *testing.T) {
	for _, tc := range []struct {
		body, code, message string
	}{
		{`{"error":{"code":"bad_request","field":"algo","detail":"unknown algorithm"}}`, "bad_request", "unknown algorithm"},
		{`{"error":{"code":"bad_request","detail":"v1 text","status":400,"message":"legacy text"},"code":"bad_request"}`, "bad_request", "v1 text"},
		{`{"error":{"code":"over_capacity","message":"legacy only"}}`, "over_capacity", "legacy only"},
		{`not json`, "", ""},
	} {
		rec := newResponse(400, tc.body)
		var she *shardHTTPError
		if err := decodeShardHTTPError(rec); !errors.As(err, &she) || she.code != tc.code || she.message != tc.message {
			t.Errorf("%s: got %+v, want code %q message %q", tc.body, she, tc.code, tc.message)
		}
	}
}

// BenchmarkShardLine is the per-line decode cost on the router's path.
func BenchmarkShardLine(b *testing.B) {
	line := []byte(canonicalLine)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := decodeShardLine(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := refDecodeShardLine(line); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func newResponse(status int, body string) *http.Response {
	return &http.Response{StatusCode: status, Body: io.NopCloser(strings.NewReader(body))}
}

// TestBanksdLinesTakeFastPath: every answer line banksd writes takes the
// fast path and passes through as it is, and its trailer does not.
func TestBanksdLinesTakeFastPath(t *testing.T) {
	db := relational.NewDatabase()
	author, _ := db.CreateTable("author", []string{"name"}, nil)
	paper, _ := db.CreateTable("paper", []string{"title"}, nil)
	writes, _ := db.CreateTable("writes", nil, []relational.FK{
		{Name: "author", RefTable: "author"},
		{Name: "paper", RefTable: "paper"},
	})
	author.Append([]string{"Gray <jim> & \"co\" "}, nil)
	author.Append([]string{"Selinger"}, nil)
	paper.Append([]string{"Transaction recovery \\ logging"}, nil)
	paper.Append([]string{"Access path selection"}, nil)
	writes.Append(nil, []int32{0, 0})
	writes.Append(nil, []int32{1, 1})
	writes.Append(nil, []int32{0, 1})
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	bdb, err := banks.Build(db, banks.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := banks.NewEngine(bdb, banks.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng, DB: bdb})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, algo := range []string{"bidirectional", "si-backward", "mi-backward"} {
		resp, err := http.Get(ts.URL + "/v1/search/stream?q=gray+selection&algo=" + algo)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
		if len(lines) < 2 {
			t.Fatalf("%s: no answers\n%s", algo, body)
		}
		for i, line := range lines {
			var wa wireAnswer
			fast := decodeAnswerLine(line, &wa)
			if last := i == len(lines)-1; fast == last {
				t.Fatalf("%s line %d: fast path %v\n%s", algo, i, fast, line)
			}
			if fast && !isCanonical(wa.raw) {
				t.Fatalf("%s line %d: banksd's answer bytes not canonical\n%s", algo, i, wa.raw)
			}
		}
	}
}
