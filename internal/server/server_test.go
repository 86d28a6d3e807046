package server

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"banks"
	"banks/internal/datagen"
)

// The serving tests run against a real built DB (the same factor-0.05
// DBLP-like dataset the repo's concurrency and context tests use), built
// once and shared: the server layer must be exercised over the actual
// engine, not a stub, because admission, deadlines and truncation are
// timing behaviors of real searches.
var (
	sharedOnce sync.Once
	sharedDB   *banks.DB
	sharedErr  error
)

func testDB(t testing.TB) *banks.DB {
	t.Helper()
	sharedOnce.Do(func() {
		ds, err := datagen.DBLP(datagen.DefaultDBLP(0.05))
		if err != nil {
			sharedErr = err
			return
		}
		sharedDB, sharedErr = banks.Build(ds.DB, banks.BuildOptions{})
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedDB
}

// generousTenants lifts the built-in caps so tests can run the heavy
// queries that make deadlines and admission observable.
func generousTenants() *TenantConfig {
	return &TenantConfig{Default: TenantLimits{
		MaxK: 5000, MaxTimeoutMS: 10000, DefaultTimeoutMS: 8000, MaxBatch: 16,
	}}
}

// newTestServer builds a Server over the shared DB and an httptest
// listener. Zero-value config fields get test defaults.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = testDB(t)
	}
	if cfg.Engine == nil {
		eng, err := banks.NewEngine(cfg.DB, banks.EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = eng
	}
	if cfg.Tenants == nil {
		cfg.Tenants = generousTenants()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// get performs a GET with an optional tenant header and returns the
// status, body, and response headers.
func get(t *testing.T, ts *httptest.Server, path, tenant string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func post(t *testing.T, ts *httptest.Server, path, tenant, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func decodeSearchResponse(t *testing.T, body []byte) *searchResponse {
	t.Helper()
	var resp searchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	return &resp
}

var queryIDRe = regexp.MustCompile(`^q-[0-9a-f]{16}$`)

func TestSearchEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, body, _ := get(t, ts, "/v1/search?q=database+query&k=3", "")
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200\n%s", code, body)
	}
	resp := decodeSearchResponse(t, body)
	if len(resp.Answers) != 3 {
		t.Fatalf("got %d answers, want 3", len(resp.Answers))
	}
	if resp.Truncated {
		t.Fatal("unbounded query reported truncated")
	}
	if !queryIDRe.MatchString(resp.QueryID) {
		t.Fatalf("bad query id %q", resp.QueryID)
	}
	if resp.Algo != string(banks.Bidirectional) {
		t.Fatalf("default algo %q, want bidirectional", resp.Algo)
	}
	if resp.K != 3 {
		t.Fatalf("effective k %d, want 3", resp.K)
	}
	top := resp.Answers[0]
	if top.RootLabel == "" || len(top.Nodes) == 0 {
		t.Fatalf("answer missing labels/nodes: %+v", top)
	}
	if top.Score <= 0 {
		t.Fatalf("non-positive score %v", top.Score)
	}
	if resp.Stats.NodesExplored <= 0 {
		t.Fatal("stats not populated")
	}
	// Answers are in non-increasing score order.
	for i := 1; i < len(resp.Answers); i++ {
		if resp.Answers[i].Score > resp.Answers[i-1].Score {
			t.Fatalf("answers out of order: %v after %v", resp.Answers[i].Score, resp.Answers[i-1].Score)
		}
	}
}

// TestSearchMatchesLibrary pins the HTTP path to the library path: the
// top answer served over HTTP must be the same tree the DB returns
// directly (root, score, node count) — the serving layer adds transport,
// never different answers.
func TestSearchMatchesLibrary(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, Config{})

	want, err := db.Search("database query", banks.Bidirectional, banks.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	code, body, _ := get(t, ts, "/v1/search?q=database+query&k=3", "")
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	resp := decodeSearchResponse(t, body)
	if len(resp.Answers) != len(want.Answers) {
		t.Fatalf("HTTP answers %d, library %d", len(resp.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		if resp.Answers[i].Root != want.Answers[i].Root {
			t.Fatalf("answer %d root %d over HTTP, %d from library", i, resp.Answers[i].Root, want.Answers[i].Root)
		}
		if resp.Answers[i].Score != want.Answers[i].Score {
			t.Fatalf("answer %d score %v over HTTP, %v from library", i, resp.Answers[i].Score, want.Answers[i].Score)
		}
		if resp.Answers[i].RootLabel != db.NodeLabel(want.Answers[i].Root) {
			t.Fatalf("answer %d label %q, want %q", i, resp.Answers[i].RootLabel, db.NodeLabel(want.Answers[i].Root))
		}
	}
}

func TestSearchPOSTBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/search", "", `{"query":"database query","algo":"mi-backward","k":2}`)
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	resp := decodeSearchResponse(t, body)
	if resp.Algo != string(banks.MIBackward) {
		t.Fatalf("algo %q, want mi-backward", resp.Algo)
	}
	if len(resp.Answers) != 2 {
		t.Fatalf("got %d answers, want 2", len(resp.Answers))
	}
}

// TestQueryIDStable: the same logical query gets the same ID across
// requests and transports; a different query gets a different one.
func TestQueryIDStable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, b1, _ := get(t, ts, "/v1/search?q=database+query&k=3", "")
	_, b2, _ := get(t, ts, "/v1/search?q=database+query&k=3", "")
	_, b3 := post(t, ts, "/v1/search", "", `{"query":"database query","k":3}`)
	_, b4, _ := get(t, ts, "/v1/search?q=database+query&k=4", "")
	id1 := decodeSearchResponse(t, b1).QueryID
	id2 := decodeSearchResponse(t, b2).QueryID
	id3 := decodeSearchResponse(t, b3).QueryID
	id4 := decodeSearchResponse(t, b4).QueryID
	if id1 != id2 || id1 != id3 {
		t.Fatalf("identical queries got different ids: %s %s %s", id1, id2, id3)
	}
	if id1 == id4 {
		t.Fatalf("different k got the same id %s", id1)
	}
}

func TestNearEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := get(t, ts, "/v1/near?q=database+query&k=5", "")
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	var resp nearResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Nodes) == 0 || len(resp.Nodes) > 5 {
		t.Fatalf("got %d nodes, want 1..5", len(resp.Nodes))
	}
	for i := 1; i < len(resp.Nodes); i++ {
		if resp.Nodes[i].Activation > resp.Nodes[i-1].Activation {
			t.Fatal("near nodes not in activation order")
		}
	}
	if resp.Nodes[0].Label == "" {
		t.Fatal("near node missing label")
	}

	// A near query and a tree search over the same terms are different
	// queries and must not share a stable ID.
	_, sbody, _ := get(t, ts, "/v1/search?q=database+query&k=5", "")
	if sid := decodeSearchResponse(t, sbody).QueryID; sid == resp.QueryID {
		t.Fatalf("near and search share query id %s", sid)
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := get(t, ts, "/v1/explain?q=database+query&k=2", "")
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	var resp explainResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Explains) != 2 {
		t.Fatalf("got %d explains, want 2", len(resp.Explains))
	}
	for _, e := range resp.Explains {
		if !strings.HasPrefix(e, "score=") {
			t.Fatalf("explain does not look rendered: %q", e)
		}
	}

	// Explain discloses tenant clamps like search and near do.
	code, body = 0, nil
	code, body, _ = get(t, ts, "/v1/explain?q=database+query&k=100000", "")
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	var clamped explainResponse
	if err := json.Unmarshal(body, &clamped); err != nil {
		t.Fatal(err)
	}
	if len(clamped.Clamped) != 1 || clamped.Clamped[0] != "k" {
		t.Fatalf("explain clamped %v, want [k]", clamped.Clamped)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/batch", "",
		`{"queries":[{"query":"database query","k":2},{"query":"transaction recovery","k":1,"algo":"si-backward"}]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(resp.Results) != 2 || len(resp.Errors) != 2 {
		t.Fatalf("results/errors length %d/%d, want 2/2", len(resp.Results), len(resp.Errors))
	}
	for i := range resp.Results {
		if resp.Errors[i] != nil {
			t.Fatalf("query %d failed: %+v", i, resp.Errors[i])
		}
		if resp.Results[i] == nil || len(resp.Results[i].Answers) == 0 {
			t.Fatalf("query %d has no answers", i)
		}
	}
	if resp.Results[1].Algo != string(banks.SIBackward) {
		t.Fatalf("query 1 algo %q, want si-backward", resp.Results[1].Algo)
	}

	if code, _ := post(t, ts, "/v1/batch", "", `{"queries":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	if code, body, _ := get(t, ts, "/v1/batch?q=x", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch: status %d, want 405\n%s", code, body)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, body, _ := get(t, ts, "/healthz", "")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	code, body, _ = get(t, ts, "/healthz", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz while draining: %d %q", code, body)
	}
	// Admitted work still completes during drain: the gate stays open
	// until the listeners close.
	code, _, _ = get(t, ts, "/v1/search?q=database&k=1", "")
	if code != http.StatusOK {
		t.Fatalf("search during drain: %d, want 200", code)
	}
}

func TestStatusz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _, _ := get(t, ts, "/v1/search?q=database+query&k=1", ""); code != http.StatusOK {
		t.Fatal("warmup query failed")
	}
	code, body, _ := get(t, ts, "/statusz", "")
	if code != http.StatusOK {
		t.Fatalf("statusz status %d", code)
	}
	var st statuszResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad statusz JSON: %v\n%s", err, body)
	}
	if st.Dataset.Nodes == 0 || st.Dataset.Edges == 0 || st.Dataset.Terms == 0 {
		t.Fatalf("dataset counters empty: %+v", st.Dataset)
	}
	if st.Engine.Searches == 0 {
		t.Fatal("engine search counter did not move")
	}
	if st.Engine.PoolWorkers < 1 || st.Admission.Limit < 1 {
		t.Fatalf("bad pool/admission config: %+v %+v", st.Engine, st.Admission)
	}
	if st.Runtime.GoVersion == "" || st.Runtime.Goroutines == 0 {
		t.Fatalf("runtime section empty: %+v", st.Runtime)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _, _ := get(t, ts, "/v1/search?q=database+query&k=1", ""); code != http.StatusOK {
		t.Fatal("warmup query failed")
	}
	code, body, hdr := get(t, ts, "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`banksd_queries_total{algo="bidirectional",outcome="ok"} 1`,
		`banksd_http_requests_total{path="/v1/search",code="200"} 1`,
		"banksd_query_duration_seconds_count 1",
		"banksd_admission_rejected_total 0",
		"banksd_admission_limit",
		"banksd_engine_pool_workers",
		"banksd_cache_misses_total 1",
		"go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every non-comment line parses as "name{labels} value" or "name value".
	lineRe := regexp.MustCompile(`^[a-z_]+(\{[^}]*\})? -?[0-9].*$`)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !lineRe.MatchString(line) {
			t.Errorf("malformed metrics line %q", line)
		}
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _, _ := get(t, ts, "/v1/nope", ""); code != http.StatusNotFound {
		t.Fatalf("unknown route: %d, want 404", code)
	}
	if code, _, _ := get(t, ts, "/wp-login.php", ""); code != http.StatusNotFound {
		t.Fatal("scanner path not 404")
	}
	// Unmatched paths share one "other" metrics bucket: each distinct
	// probe path must not mint its own never-evicted series.
	_, body, _ := get(t, ts, "/metrics", "")
	text := string(body)
	if !strings.Contains(text, `banksd_http_requests_total{path="other",code="404"} 2`) {
		t.Fatalf("404s not bucketed as other:\n%s", text)
	}
	if strings.Contains(text, "wp-login") {
		t.Fatal("scanner path leaked into metrics labels")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/search", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE search: %d, want 405", resp.StatusCode)
	}
}

func TestNewValidation(t *testing.T) {
	db := testDB(t)
	eng, err := banks.NewEngine(db, banks.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DB: db}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(Config{Engine: eng}); err == nil {
		t.Fatal("nil db accepted")
	}
	if _, err := New(Config{Engine: eng, DB: db, MaxInFlight: -1}); err == nil {
		t.Fatal("negative MaxInFlight accepted")
	}
	bad := &TenantConfig{Tenants: map[string]TenantLimits{"x": {MaxK: -1}}}
	if _, err := New(Config{Engine: eng, DB: db, Tenants: bad}); err == nil {
		t.Fatal("invalid tenant config accepted")
	}
}

// TestRequestLogging: every /v1/ request emits one line carrying the
// stable query ID and tenant.
func TestRequestLogging(t *testing.T) {
	var buf syncBuffer
	logger := log.New(&buf, "", 0)
	_, ts := newTestServer(t, Config{Logger: logger})
	_, body, _ := get(t, ts, "/v1/search?q=database+query&k=1", "acme")
	qid := decodeSearchResponse(t, body).QueryID
	out := buf.String()
	if !strings.Contains(out, "tenant=acme") {
		t.Fatalf("log line missing tenant: %q", out)
	}
	if !strings.Contains(out, "qid="+qid) {
		t.Fatalf("log line missing query id %s: %q", qid, out)
	}
	if !strings.Contains(out, "/v1/search") || !strings.Contains(out, " 200 ") {
		t.Fatalf("log line missing request summary: %q", out)
	}
}

type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestSerialFallbackStatsContract pins, end-to-end through the HTTP
// stats, that the workers field is accepted and ignored: every algorithm
// and Near report workers_used == 0, and a tree search with workers=4
// answers byte-identically to the same request without it.
func TestSerialFallbackStatsContract(t *testing.T) {
	db := testDB(t)
	eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: 8, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Engine: eng, DB: db})

	answers := func(path string) json.RawMessage {
		t.Helper()
		code, body, _ := get(t, ts, path, "")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", path, code, body)
		}
		resp := decodeSearchResponse(t, body)
		if resp.Stats.WorkersUsed != 0 {
			t.Fatalf("%s: workers_used = %d, want 0 (serial)", path, resp.Stats.WorkersUsed)
		}
		if len(resp.Answers) == 0 {
			t.Fatalf("%s: no answers", path)
		}
		var raw struct {
			Answers json.RawMessage `json:"answers"`
		}
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		return raw.Answers
	}
	for _, algo := range banks.Algorithms() {
		path := "/v1/search?q=database+query&k=3&algo=" + string(algo)
		plain, with := answers(path), answers(path+"&workers=4")
		if string(plain) != string(with) {
			t.Fatalf("%s: answers with workers=4 differ from without:\n%s\n%s", algo, with, plain)
		}
	}

	code, body, _ := get(t, ts, "/v1/near?q=database+query&k=3&workers=4", "")
	if code != http.StatusOK {
		t.Fatalf("near status %d\n%s", code, body)
	}
	var near nearResponse
	if err := json.Unmarshal(body, &near); err != nil {
		t.Fatalf("bad near JSON: %v\n%s", err, body)
	}
	if near.Stats.WorkersUsed != 0 {
		t.Fatalf("near workers_used = %d, want 0 (serial fallback)", near.Stats.WorkersUsed)
	}
}
