package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"banks"
)

func decodeError(t *testing.T, body []byte) errorJSON {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("bad error JSON: %v\n%s", err, body)
	}
	return eb.Error
}

// TestBadRequests: every malformed request maps to a 400 whose body names
// a stable code (and, where known, the offending field). The
// "bad_options" rows prove the typed *core.OptionsError contract: invalid
// option values flow through the engine untouched and come back with
// core's own field name.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name      string
		method    string
		target    string // path?query for GET, path for POST
		body      string // POST only
		wantCode  string
		wantField string
	}{
		{name: "missing q", method: "GET", target: "/v1/search", wantCode: "bad_request", wantField: "q"},
		{name: "stopword-only query", method: "GET", target: "/v1/search?q=%21%21%21", wantCode: "bad_request", wantField: "q"},
		{name: "unknown parameter", method: "GET", target: "/v1/search?q=db&kk=3", wantCode: "bad_request", wantField: "kk"},
		{name: "repeated parameter", method: "GET", target: "/v1/search?q=db&k=1&k=2", wantCode: "bad_request", wantField: "k"},
		{name: "non-integer k", method: "GET", target: "/v1/search?q=db&k=ten", wantCode: "bad_request", wantField: "k"},
		{name: "non-number mu", method: "GET", target: "/v1/search?q=db&mu=half", wantCode: "bad_request", wantField: "mu"},
		{name: "bad bool", method: "GET", target: "/v1/search?q=db&strict_bound=maybe", wantCode: "bad_request", wantField: "strict_bound"},
		{name: "unknown algo", method: "GET", target: "/v1/search?q=db&algo=dijkstra", wantCode: "bad_request", wantField: "algo"},
		{name: "bad timeout", method: "GET", target: "/v1/search?q=db&timeout=soon", wantCode: "bad_request", wantField: "timeout"},
		{name: "NaN mu", method: "GET", target: "/v1/search?q=db&mu=NaN", wantCode: "bad_request", wantField: "mu"},
		{name: "infinite lambda", method: "GET", target: "/v1/search?q=db&lambda=Inf", wantCode: "bad_request", wantField: "lambda"},
		{name: "overflow-sized timeout", method: "GET", target: "/v1/search?q=db&timeout=10000000000000", wantCode: "bad_request", wantField: "timeout"},
		{name: "negative timeout", method: "GET", target: "/v1/search?q=db&timeout=-5s", wantCode: "bad_request", wantField: "timeout"},
		{name: "sub-ms timeout", method: "GET", target: "/v1/search?q=db&timeout=10us", wantCode: "bad_request", wantField: "timeout"},
		{name: "too many keywords", method: "GET", target: "/v1/search?q=" + strings.Repeat("w+", 17) + "z", wantCode: "bad_request", wantField: "q"},

		{name: "negative k is core's call", method: "GET", target: "/v1/search?q=db&k=-1", wantCode: "bad_options", wantField: "K"},
		{name: "negative workers is core's call", method: "GET", target: "/v1/search?q=db&workers=-1", wantCode: "bad_options", wantField: "Workers"},
		{name: "mu out of range is core's call", method: "GET", target: "/v1/search?q=db&mu=1.5", wantCode: "bad_options", wantField: "Mu"},
		{name: "negative dmax is core's call", method: "GET", target: "/v1/search?q=db&dmax=-2", wantCode: "bad_options", wantField: "DMax"},
		{name: "negative lambda is core's call", method: "GET", target: "/v1/search?q=db&lambda=-1", wantCode: "bad_options", wantField: "Lambda"},
		{name: "negative max_nodes is core's call", method: "GET", target: "/v1/search?q=db&max_nodes=-1", wantCode: "bad_options", wantField: "MaxNodes"},

		{name: "not json", method: "POST", target: "/v1/search", body: `query=db`, wantCode: "bad_request"},
		{name: "unknown json field", method: "POST", target: "/v1/search", body: `{"query":"db","kk":3}`, wantCode: "bad_request"},
		{name: "trailing json", method: "POST", target: "/v1/search", body: `{"query":"db"} {"query":"again"}`, wantCode: "bad_request"},
		{name: "negative timeout_ms", method: "POST", target: "/v1/search", body: `{"query":"db","timeout_ms":-5}`, wantCode: "bad_request", wantField: "timeout_ms"},
		{name: "overflow-sized timeout_ms", method: "POST", target: "/v1/search", body: `{"query":"db","timeout_ms":10000000000000}`, wantCode: "bad_request", wantField: "timeout_ms"},
		{name: "batch overflow-sized timeout_ms", method: "POST", target: "/v1/batch", body: `{"timeout_ms":10000000000000,"queries":[{"query":"db"}]}`, wantCode: "bad_request", wantField: "timeout_ms"},
		{name: "empty json query", method: "POST", target: "/v1/search", body: `{"query":""}`, wantCode: "bad_request", wantField: "q"},

		{name: "batch with element timeout", method: "POST", target: "/v1/batch",
			body: `{"queries":[{"query":"db","timeout_ms":50}]}`, wantCode: "bad_request", wantField: "queries[0].timeout_ms"},
		{name: "batch element bad algo", method: "POST", target: "/v1/batch",
			body: `{"queries":[{"query":"db"},{"query":"db","algo":"nope"}]}`, wantCode: "bad_request", wantField: "queries[1].algo"},

		{name: "near rejects algo", method: "GET", target: "/v1/near?q=db&algo=mi-backward", wantCode: "bad_request", wantField: "algo"},
		{name: "near rejects strict_bound", method: "GET", target: "/v1/near?q=db&strict_bound=true", wantCode: "bad_request", wantField: "strict_bound"},
		{name: "near rejects activation_sum", method: "GET", target: "/v1/near?q=db&activation_sum=true", wantCode: "bad_request", wantField: "activation_sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				code int
				body []byte
			)
			if tc.method == "GET" {
				code, body, _ = get(t, ts, tc.target, "")
			} else {
				code, body = post(t, ts, tc.target, "", tc.body)
			}
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400\n%s", code, body)
			}
			e := decodeError(t, body)
			if e.Code != tc.wantCode {
				t.Errorf("error code %q, want %q (%s)", e.Code, tc.wantCode, e.Message)
			}
			if tc.wantField != "" && e.Field != tc.wantField {
				t.Errorf("error field %q, want %q (%s)", e.Field, tc.wantField, e.Message)
			}
			if e.Status != http.StatusBadRequest || e.Message == "" {
				t.Errorf("incomplete error body: %+v", e)
			}
		})
	}
}

// TestBatchElementOptionsError: options only core can judge (negative
// workers) fail per element, positionally, without sinking the siblings —
// and still carry the typed field name.
func TestBatchElementOptionsError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts, "/v1/batch", "",
		`{"queries":[{"query":"database query","k":1},{"query":"db","workers":-1}]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 (batch errors are positional)\n%s", code, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Errors[0] != nil || resp.Results[0] == nil {
		t.Fatalf("healthy sibling affected: %+v", resp.Errors[0])
	}
	if resp.Results[1] != nil || resp.Errors[1] == nil {
		t.Fatal("invalid element did not fail")
	}
	if resp.Errors[1].Code != "bad_options" || resp.Errors[1].Field != "queries[1].Workers" {
		t.Fatalf("element error %+v, want bad_options on queries[1].Workers", resp.Errors[1])
	}
}

// TestBatchTooLarge: over-limit batches are rejected whole — clamping
// would silently drop queries and break the positional result mapping.
func TestBatchTooLarge(t *testing.T) {
	cfg := &TenantConfig{Default: TenantLimits{MaxBatch: 2, MaxK: 100, DefaultTimeoutMS: 5000}}
	_, ts := newTestServer(t, Config{Tenants: cfg})
	code, body := post(t, ts, "/v1/batch", "",
		`{"queries":[{"query":"a"},{"query":"b"},{"query":"c"}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400\n%s", code, body)
	}
	if e := decodeError(t, body); e.Code != "batch_too_large" {
		t.Fatalf("error code %q, want batch_too_large", e.Code)
	}
}

// TestBatchTimeoutClampDisclosed: reducing the batch's shared deadline to
// the tenant cap is disclosed at the batch level, mirroring the
// per-element clamp contract.
func TestBatchTimeoutClampDisclosed(t *testing.T) {
	cfg := &TenantConfig{Default: TenantLimits{MaxK: 100, MaxTimeoutMS: 1000, DefaultTimeoutMS: 500}}
	_, ts := newTestServer(t, Config{Tenants: cfg})
	code, body := post(t, ts, "/v1/batch", "",
		`{"timeout_ms":30000,"queries":[{"query":"database query","k":1}]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d\n%s", code, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Clamped) != 1 || resp.Clamped[0] != "timeout" {
		t.Fatalf("batch clamped %v, want [timeout]", resp.Clamped)
	}
}

// TestDeadlineTruncation is the satellite scenario: a deadline that
// expires mid-search yields HTTP 200 with the partial top-k found so far
// and "truncated":true in the JSON body — interactive serving degrades to
// partial answers, never to errors.
func TestDeadlineTruncation(t *testing.T) {
	db := testDB(t)
	// No result cache: an earlier test completing the same query would
	// otherwise serve a full (untruncated) result instantly.
	eng, err := banks.NewEngine(db, banks.EngineOptions{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Engine: eng, DB: db})

	// Without the deadline this query explores essentially the whole
	// graph (~80ms+); 5ms reliably expires mid-search, with enough margin
	// that the search always *starts* (the pool is idle, so slot
	// acquisition is immediate).
	code, body, _ := get(t, ts, "/v1/search?q=database+transaction&k=500&dmax=16&timeout=5", "")
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200\n%s", code, body)
	}
	if !strings.Contains(string(body), `"truncated":true`) {
		t.Fatalf("body does not report truncation:\n%s", body)
	}
	resp := decodeSearchResponse(t, body)
	if !resp.Truncated {
		t.Fatal("Truncated false after deadline expiry")
	}
	if resp.Stats.NodesExplored == 0 {
		t.Fatal("search never started")
	}

	// Near queries truncate the same way. Near spreads over this whole
	// graph in a few milliseconds, so it gets a 1ms deadline.
	code, body, _ = get(t, ts, "/v1/near?q=database+transaction&k=500&dmax=16&timeout=1", "")
	if code != http.StatusOK {
		t.Fatalf("near status %d\n%s", code, body)
	}
	var nresp nearResponse
	if err := json.Unmarshal(body, &nresp); err != nil {
		t.Fatal(err)
	}
	if !nresp.Truncated {
		t.Fatal("near: Truncated false after deadline expiry")
	}
}

// TestQueryIDIgnoresExecutionKnobs: deadline and workers change how a
// query runs, not what it is — the stable ID must not move.
func TestQueryIDIgnoresExecutionKnobs(t *testing.T) {
	lim := generousTenants().Resolve("")
	base, herr := (&searchParams{Query: "Database Query", K: 3}).resolve(lim)
	if herr != nil {
		t.Fatal(herr)
	}
	variants := []*searchParams{
		{Query: "database query", K: 3, TimeoutMS: 50},
		{Query: "DATABASE   query", K: 3, Workers: 4},
	}
	for _, p := range variants {
		req, herr := p.resolve(lim)
		if herr != nil {
			t.Fatal(herr)
		}
		if req.queryID() != base.queryID() {
			t.Fatalf("queryID changed for %+v: %s vs %s", p, req.queryID(), base.queryID())
		}
	}
	diff, _ := (&searchParams{Query: "database query", K: 3, Algo: string(banks.MIBackward)}).resolve(lim)
	if diff.queryID() == base.queryID() {
		t.Fatal("different algorithm kept the same queryID")
	}
}
