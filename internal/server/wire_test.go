package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"banks"
	"banks/internal/relational"
)

// The response shapes as one json.Encoder call writes them, with the
// answers as nested values. The tests decode responses into them, and
// the byte-identity tests below encode them as the reference the spliced
// writers (api.AppendSearch, api.AppendAnswerLine) must match.

// searchResponse is the /v1/search (and per-element /v1/batch) body.
type searchResponse struct {
	QueryID   string       `json:"query_id"`
	Algo      string       `json:"algo"`
	K         int          `json:"k"`
	Clamped   []string     `json:"clamped,omitempty"`
	Truncated bool         `json:"truncated"`
	Answers   []answerJSON `json:"answers"`
	Stats     statsJSON    `json:"stats"`
}

// batchResponse is the /v1/batch body.
type batchResponse struct {
	Clamped []string          `json:"clamped,omitempty"`
	Results []*searchResponse `json:"results"`
	Errors  []*errorJSON      `json:"errors"`
}

// streamAnswerLine is one NDJSON answer line.
type streamAnswerLine struct {
	Type        string     `json:"type"`
	Rank        int        `json:"rank"`
	GeneratedMS float64    `json:"generated_ms"`
	OutputMS    float64    `json:"output_ms"`
	Answer      answerJSON `json:"answer"`
}

// escapeDB is a small bibliography whose labels hold every character
// encoding/json escapes in HTML-safe mode (<, >, &, U+2028, U+2029) plus
// a quote and a backslash.
func escapeDB(t testing.TB) *banks.DB {
	t.Helper()
	db := relational.NewDatabase()
	author, _ := db.CreateTable("author", []string{"name"}, nil)
	paper, _ := db.CreateTable("paper", []string{"title"}, nil)
	writes, _ := db.CreateTable("writes", nil, []relational.FK{
		{Name: "author", RefTable: "author"},
		{Name: "paper", RefTable: "paper"},
	})
	author.Append([]string{"Gray <jim> & co\u2028"}, nil)
	author.Append([]string{"Selinger   \"pat\""}, nil)
	author.Append([]string{"Ullman \\  "}, nil)
	paper.Append([]string{"Transaction <recovery>\u2029& logging"}, nil)
	paper.Append([]string{"Access path  selection"}, nil)
	paper.Append([]string{"Transaction models"}, nil)
	writes.Append(nil, []int32{0, 0})
	writes.Append(nil, []int32{1, 1})
	writes.Append(nil, []int32{2, 2})
	writes.Append(nil, []int32{1, 0})
	writes.Append(nil, []int32{0, 2})
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	bdb, err := banks.Build(db, banks.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return bdb
}

func encodeRef(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refSearch is the reference /v1/search response for a query URL: the
// engine's result (a cache hit once the server has answered the query)
// in the reference shape.
func refSearch(t *testing.T, s *Server, target string) (*searchResponse, *banks.Result) {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, target, nil)
	req, herr := decodeSearchRequest(r, s.limits(r))
	if herr != nil {
		t.Fatalf("%s: %s", target, herr.message)
	}
	res, err := s.eng.Search(context.Background(), req.Query, req.Algo, req.Opts)
	if err != nil {
		t.Fatal(err)
	}
	answers := make([]answerJSON, len(res.Answers))
	for i, a := range res.Answers {
		answers[i] = s.answerJSON(a)
	}
	return &searchResponse{
		QueryID:   req.queryID(),
		Algo:      string(req.Algo),
		K:         req.Opts.Normalized().K,
		Clamped:   req.Clamped,
		Truncated: res.Stats.Truncated,
		Answers:   answers,
		Stats:     s.statsJSON(res.Stats),
	}, res
}

// refStream is the reference NDJSON body for a query URL, as a stream
// with the given cache provenance.
func refStream(t *testing.T, s *Server, target string, cached bool) []byte {
	t.Helper()
	resp, res := refSearch(t, s, target)
	var out []byte
	for i, a := range res.Answers {
		out = append(out, encodeRef(t, streamAnswerLine{
			Type: "answer", Rank: i + 1,
			GeneratedMS: ms(a.GeneratedAt), OutputMS: ms(a.OutputAt),
			Answer: resp.Answers[i],
		})...)
	}
	tr := streamTrailerLine{
		Type: "trailer", QueryID: resp.QueryID, Algo: resp.Algo, K: resp.K,
		Clamped: resp.Clamped, Truncated: resp.Truncated, Cached: cached,
		Answers: len(res.Answers), Stats: resp.Stats,
	}
	if len(res.Answers) > 0 {
		first := ms(res.Answers[0].OutputAt)
		tr.FirstAnswerMS = &first
	}
	return append(out, encodeRef(t, tr)...)
}

// TestHitWritersMatchEncoder pins the spliced writers to the
// json.Encoder reference byte for byte: /v1/search, /v1/search/stream and
// /v1/batch, on the miss that fills the cache, the first hit (which
// encodes and memoizes) and a later hit (served from the memo), over
// labels full of characters the encoder escapes.
func TestHitWritersMatchEncoder(t *testing.T) {
	srv, ts := newTestServer(t, Config{DB: escapeDB(t)})
	checkSearch := func(q string, round int) {
		t.Helper()
		code, body, _ := get(t, ts, q, "")
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d\n%s", q, code, body)
		}
		ref, res := refSearch(t, srv, q)
		if len(res.Answers) == 0 {
			t.Fatalf("%s: no answers; the test needs some", q)
		}
		if want := encodeRef(t, ref); !bytes.Equal(body, want) {
			t.Fatalf("%s round %d: body differs from the encoder's\n got %s\nwant %s", q, round, body, want)
		}
	}
	checkStream := func(q string, round int, cached bool) {
		t.Helper()
		stream := strings.Replace(q, "/v1/search", "/v1/search/stream", 1)
		code, body, _ := get(t, ts, stream, "")
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d\n%s", stream, code, body)
		}
		if want := refStream(t, srv, q, cached); !bytes.Equal(body, want) {
			t.Fatalf("%s round %d: body differs from the encoder's\n got %s\nwant %s", stream, round, body, want)
		}
	}
	// Each query's first request is the miss that fills the cache, its
	// second the hit that memoizes, its third a hit served from the memo;
	// the memo is filled through /v1/search for some queries and through
	// the stream for others.
	for _, q := range []string{
		"/v1/search?q=transaction+gray&k=5",
		"/v1/search?q=selinger+access&k=3&algo=si-backward",
	} {
		for round := 0; round < 3; round++ {
			checkSearch(q, round)
		}
		for round := 0; round < 2; round++ {
			checkStream(q, round, true)
		}
	}
	for _, q := range []string{
		"/v1/search?q=ullman+transaction&algo=mi-backward&k=200",
		"/v1/search?q=gray+access&k=4",
	} {
		for round := 0; round < 3; round++ {
			checkStream(q, round, round > 0)
		}
		for round := 0; round < 2; round++ {
			checkSearch(q, round)
		}
	}

	if _, body, _ := get(t, ts, "/v1/search?q=transaction+gray&k=5", ""); !bytes.Contains(body, []byte(`\u003c`)) ||
		!bytes.Contains(body, []byte(`\u0026`)) || !bytes.Contains(body, []byte(`\u2028`)) {
		t.Fatalf("labels do not exercise the encoder's escaping:\n%s", body)
	}

	batch := `{"queries":[{"query":"transaction gray","k":5},{"query":"zzzunknown"},` +
		`{"query":"selinger access","k":3,"algo":"si-backward"},{"query":"gray","k":1000000}]}`
	for round := 0; round < 3; round++ {
		code, body := post(t, ts, "/v1/batch", "", batch)
		if code != http.StatusOK {
			t.Fatalf("batch: HTTP %d\n%s", code, body)
		}
		var got batchResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want := batchResponse{Clamped: got.Clamped, Results: make([]*searchResponse, 4), Errors: got.Errors}
		for i, q := range []string{"q=transaction+gray&k=5", "q=zzzunknown", "q=selinger+access&k=3&algo=si-backward", "q=gray&k=1000000"} {
			if got.Results[i] == nil {
				continue
			}
			want.Results[i], _ = refSearch(t, srv, "/v1/search?"+q)
		}
		if got.Errors[1] == nil && got.Results[1] == nil {
			t.Fatalf("batch element 1: neither result nor error\n%s", body)
		}
		if !bytes.Equal(body, encodeRef(t, &want)) {
			t.Fatalf("batch round %d: body differs from the encoder's\n got %s\nwant %s", round, body, encodeRef(t, &want))
		}
	}
}

// TestLiveStreamMatchesEncoder pins the live (uncached) stream writer to
// the encoder reference.
func TestLiveStreamMatchesEncoder(t *testing.T) {
	eng, err := banks.NewEngine(escapeDB(t), banks.EngineOptions{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{DB: eng.DB(), Engine: eng})
	q := "/v1/search?q=transaction+gray&k=5&algo=mi-backward"
	resp, err := http.Get(ts.URL + strings.Replace(q, "/v1/search", "/v1/search/stream", 1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Searches are deterministic, so a fresh search reproduces every
	// field; only the timings differ, which the reference takes from the
	// streamed lines themselves.
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	ref, _ := refSearch(t, srv, q)
	if len(lines) != len(ref.Answers)+1 {
		t.Fatalf("%d lines for %d answers\n%s", len(lines), len(ref.Answers), body)
	}
	for i := range ref.Answers {
		var got streamAnswerLine
		if err := json.Unmarshal(lines[i], &got); err != nil {
			t.Fatal(err)
		}
		want := streamAnswerLine{Type: "answer", Rank: i + 1, GeneratedMS: got.GeneratedMS, OutputMS: got.OutputMS, Answer: ref.Answers[i]}
		if w := encodeRef(t, want); !bytes.Equal(append(lines[i], '\n'), w) {
			t.Fatalf("line %d differs from the encoder's\n got %s\nwant %s", i, lines[i], w)
		}
	}
	var tr streamTrailerLine
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		t.Fatal(err)
	}
	if w := encodeRef(t, tr); !bytes.Equal(append(lines[len(lines)-1], '\n'), w) {
		t.Fatalf("trailer differs from the encoder's\n got %s\nwant %s", lines[len(lines)-1], w)
	}
}

// flushCounter is a ResponseWriter that counts writes and flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (f *flushCounter) Write(b []byte) (int, error) {
	f.writes++
	return f.ResponseRecorder.Write(b)
}

func (f *flushCounter) Flush() { f.flushes++ }

// TestStreamFlushes: a live stream flushes every answer line and the
// trailer as it goes; a cache replay goes out in one write and one flush.
func TestStreamFlushes(t *testing.T) {
	srv, _ := newTestServer(t, Config{DB: escapeDB(t)})
	target := "/v1/search/stream?q=transaction+gray&k=5"
	serve := func() (*flushCounter, []streamAnswerLine) {
		t.Helper()
		fc := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		srv.Handler().ServeHTTP(fc, httptest.NewRequest(http.MethodGet, target, nil))
		if fc.Code != http.StatusOK {
			t.Fatalf("HTTP %d\n%s", fc.Code, fc.Body)
		}
		answers, _ := parseStreamBody(t, fc.Body.Bytes())
		return fc, answers
	}
	live, answers := serve()
	if len(answers) < 2 {
		t.Fatalf("%d answers; the test needs several", len(answers))
	}
	if want := len(answers) + 1; live.flushes != want || live.writes != want {
		t.Fatalf("live stream: %d writes, %d flushes for %d lines", live.writes, live.flushes, want)
	}
	for round := 0; round < 2; round++ {
		if replay, _ := serve(); replay.writes != 1 || replay.flushes != 1 {
			t.Fatalf("replay %d: %d writes, %d flushes, want 1 and 1", round, replay.writes, replay.flushes)
		}
	}
}
