// Degenerate-input table: every library entry point (SearchNodes, Search,
// Near) and banksd's HTTP surface, for every algorithm, on inputs at and
// past the edges of what a query can be — node IDs outside the graph, one
// node in every keyword set, repeated keywords, unknown terms, empty
// queries, and one keyword more than core.MaxKeywords. Each case must end
// in a typed error or a valid, possibly empty, result, never a panic; the
// outputs are checked, not only the absence of a panic.
package banks_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"banks"
	"banks/internal/core"
	"banks/internal/server"
)

// degenerateTerm matches many nodes of the shared DBLP test database.
const degenerateTerm = "transaction"

// repeatTerm returns n copies of term as one free-text query.
func repeatTerm(term string, n int) string {
	return strings.TrimSpace(strings.Repeat(term+" ", n))
}

// checkAnswer asserts that a is a well-formed answer tree for the keyword
// node sets kw: one keyword node per set, drawn from that set and present
// in the tree, a root inside the tree, one edge fewer than nodes, and a
// finite positive score.
func checkAnswer(t *testing.T, label string, a *banks.Answer, kw [][]banks.NodeID) {
	t.Helper()
	in := func(u banks.NodeID, set []banks.NodeID) bool {
		for _, v := range set {
			if u == v {
				return true
			}
		}
		return false
	}
	if len(a.KeywordNodes) != len(kw) {
		t.Fatalf("%s: %d keyword nodes for %d keywords", label, len(a.KeywordNodes), len(kw))
	}
	for i, u := range a.KeywordNodes {
		if !in(u, kw[i]) {
			t.Fatalf("%s: keyword node %d (%d) is not in its keyword set", label, i, u)
		}
		if !in(u, a.Nodes) {
			t.Fatalf("%s: keyword node %d (%d) is not in the tree %v", label, i, u, a.Nodes)
		}
	}
	if !in(a.Root, a.Nodes) {
		t.Fatalf("%s: root %d is not in the tree %v", label, a.Root, a.Nodes)
	}
	if len(a.Edges) != len(a.Nodes)-1 {
		t.Fatalf("%s: %d edges for %d nodes is not a tree", label, len(a.Edges), len(a.Nodes))
	}
	if !(a.Score > 0) || math.IsInf(a.Score, 0) {
		t.Fatalf("%s: score %v", label, a.Score)
	}
}

// wantInputError asserts err is a *core.InputError.
func wantInputError(t *testing.T, label string, err error) {
	t.Helper()
	var ie *core.InputError
	if !errors.As(err, &ie) {
		t.Fatalf("%s: got %v, want *core.InputError", label, err)
	}
}

func TestDegenerateInputsLibrary(t *testing.T) {
	db := testDB(t)
	hits := db.KeywordNodes(degenerateTerm)
	if len(hits) < 2 {
		t.Fatalf("%q matches %d nodes", degenerateTerm, len(hits))
	}
	u, v := hits[0], hits[1]
	n := banks.NodeID(db.Graph.NumNodes())
	sets := func(k int, set []banks.NodeID) [][]banks.NodeID {
		kw := make([][]banks.NodeID, k)
		for i := range kw {
			kw[i] = set
		}
		return kw
	}

	// SearchNodes rows. wantErr rows must fail typed; the others must
	// succeed with valid answers (none for none rows), and single rows
	// must put the one node of every set at the root of a one-node first
	// answer.
	nodeCases := []struct {
		name    string
		kw      [][]banks.NodeID
		wantErr bool
		none    bool
		single  bool
	}{
		{name: "negative node ID", kw: [][]banks.NodeID{{-1}, {u}}, wantErr: true},
		{name: "node ID equal to NumNodes", kw: [][]banks.NodeID{{u}, {n}}, wantErr: true},
		{name: "largest node ID", kw: [][]banks.NodeID{{u}, {math.MaxInt32}}, wantErr: true},
		{name: "no keyword sets", kw: nil, wantErr: true},
		{name: "MaxKeywords+1 sets", kw: sets(core.MaxKeywords+1, []banks.NodeID{u}), wantErr: true},
		{name: "one node in every set", kw: sets(3, []banks.NodeID{u}), single: true},
		{name: "MaxKeywords sets of one node", kw: sets(core.MaxKeywords, []banks.NodeID{u}), single: true},
		{name: "repeated node inside a set", kw: [][]banks.NodeID{{u, u}, {v}}},
		{name: "empty keyword set", kw: [][]banks.NodeID{{u}, {}}, none: true},
	}
	for _, algo := range banks.Algorithms() {
		for _, tc := range nodeCases {
			label := string(algo) + " " + tc.name
			res, err := db.SearchNodes(tc.kw, algo, banks.Options{K: 5})
			if tc.wantErr {
				wantInputError(t, label, err)
				if res != nil {
					t.Fatalf("%s: result alongside the error", label)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if tc.none != (len(res.Answers) == 0) {
				t.Fatalf("%s: %d answers (none expected: %v)", label, len(res.Answers), tc.none)
			}
			for i, a := range res.Answers {
				checkAnswer(t, label, a, tc.kw)
				if i == 0 && tc.single && (a.Root != u || len(a.Nodes) != 1) {
					t.Fatalf("%s: first answer rooted at %d with nodes %v, want the single node %d", label, a.Root, a.Nodes, u)
				}
			}
		}
	}

	// Free-text rows, through Search for every algorithm and through Near.
	textCases := []struct {
		name    string
		query   string
		wantErr bool
		// empty rows must succeed with no answers; the others with at
		// least one.
		empty bool
	}{
		{name: "repeated keyword", query: degenerateTerm + " " + degenerateTerm},
		{name: "MaxKeywords repeats", query: repeatTerm(degenerateTerm, core.MaxKeywords)},
		{name: "MaxKeywords+1 keywords", query: repeatTerm(degenerateTerm, core.MaxKeywords+1), wantErr: true},
		{name: "unknown term", query: degenerateTerm + " zzqxjunknownterm", empty: true},
		{name: "empty query", query: "", wantErr: true},
		{name: "punctuation only", query: " ;,. ", wantErr: true},
	}
	for _, tc := range textCases {
		var kw [][]banks.NodeID
		for _, term := range banks.Keywords(tc.query) {
			kw = append(kw, db.KeywordNodes(term))
		}
		for _, algo := range banks.Algorithms() {
			label := string(algo) + " " + tc.name
			res, err := db.Search(tc.query, algo, banks.Options{K: 5})
			if tc.wantErr {
				wantInputError(t, label, err)
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if tc.empty != (len(res.Answers) == 0) {
				t.Fatalf("%s: %d answers (empty expected: %v)", label, len(res.Answers), tc.empty)
			}
			for i, a := range res.Answers {
				checkAnswer(t, label, a, kw)
				if i == 0 && len(a.Nodes) != 1 {
					// Every keyword is the same term, so the best answer
					// is a single node matching it.
					t.Fatalf("%s: first answer has nodes %v, want a single node", label, a.Nodes)
				}
			}
		}

		label := "near " + tc.name
		res, _, err := db.Near(tc.query, banks.Options{K: 5})
		if tc.wantErr {
			wantInputError(t, label, err)
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if tc.empty != (len(res) == 0) {
			t.Fatalf("%s: %d results (empty expected: %v)", label, len(res), tc.empty)
		}
		for i, r := range res {
			if r.Node < 0 || r.Node >= n || !(r.Activation > 0) || math.IsInf(r.Activation, 0) {
				t.Fatalf("%s: result %d is %+v", label, i, r)
			}
			if i > 0 && r.Activation > res[i-1].Activation {
				t.Fatalf("%s: results not ranked by activation: %v", label, res)
			}
		}
	}
}

// wireAnswer is the part of a banksd answer the table checks.
type wireAnswer struct {
	Root  banks.NodeID `json:"root"`
	Nodes []struct {
		ID banks.NodeID `json:"id"`
	} `json:"nodes"`
	Edges        []json.RawMessage `json:"edges"`
	KeywordNodes []banks.NodeID    `json:"keyword_nodes"`
	Score        float64           `json:"score"`
}

func TestDegenerateInputsHTTP(t *testing.T) {
	db := testDB(t)
	eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: 2, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng, DB: db})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	checkWire := func(label string, answers []wireAnswer, nk int) {
		t.Helper()
		for i, a := range answers {
			if len(a.KeywordNodes) != nk || len(a.Edges) != len(a.Nodes)-1 || !(a.Score > 0) {
				t.Fatalf("%s: answer %d malformed: %+v", label, i, a)
			}
			if i == 0 && (len(a.Nodes) != 1 || a.Nodes[0].ID != a.Root) {
				t.Fatalf("%s: first answer is not the single node matching every keyword: %+v", label, a)
			}
		}
	}

	cases := []struct {
		name  string
		query string
		// status 400 rows must name the field q; 200 rows return
		// answers, none when empty is set.
		status int
		empty  bool
	}{
		{name: "repeated keyword", query: degenerateTerm + " " + degenerateTerm, status: http.StatusOK},
		{name: "MaxKeywords repeats", query: repeatTerm(degenerateTerm, core.MaxKeywords), status: http.StatusOK},
		{name: "MaxKeywords+1 keywords", query: repeatTerm(degenerateTerm, core.MaxKeywords+1), status: http.StatusBadRequest},
		{name: "unknown term", query: degenerateTerm + " zzqxjunknownterm", status: http.StatusOK, empty: true},
		{name: "empty query", query: "", status: http.StatusBadRequest},
		{name: "punctuation only", query: " ;,. ", status: http.StatusBadRequest},
	}
	for _, tc := range cases {
		nk := len(banks.Keywords(tc.query))
		q := "q=" + url.QueryEscape(tc.query) + "&k=5"
		wantRejected := func(label string, code int, body []byte) bool {
			t.Helper()
			if code != tc.status {
				t.Fatalf("%s: status %d, want %d\n%s", label, code, tc.status, body)
			}
			if code == http.StatusOK {
				return false
			}
			var env struct {
				Error struct{ Code, Field string }
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "bad_request" || env.Error.Field != "q" {
				t.Fatalf("%s: error body %s, want bad_request on q", label, body)
			}
			return true
		}
		for _, algo := range banks.Algorithms() {
			label := "search " + string(algo) + " " + tc.name
			code, body := get("/v1/search?" + q + "&algo=" + string(algo))
			if wantRejected(label, code, body) {
				continue
			}
			var resp struct {
				Answers []wireAnswer `json:"answers"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("%s: %v\n%s", label, err, body)
			}
			if tc.empty != (len(resp.Answers) == 0) {
				t.Fatalf("%s: %d answers (empty expected: %v)", label, len(resp.Answers), tc.empty)
			}
			checkWire(label, resp.Answers, nk)

			label = "stream " + string(algo) + " " + tc.name
			code, body = get("/v1/search/stream?" + q + "&algo=" + string(algo))
			if code != http.StatusOK {
				t.Fatalf("%s: status %d\n%s", label, code, body)
			}
			var streamed []wireAnswer
			trailers := 0
			sc := bufio.NewScanner(bytes.NewReader(body))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				var line struct {
					Type   string     `json:"type"`
					Answer wireAnswer `json:"answer"`
					Error  string     `json:"error"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("%s: %v\n%s", label, err, sc.Bytes())
				}
				switch line.Type {
				case "answer":
					streamed = append(streamed, line.Answer)
				case "trailer":
					trailers++
					if line.Error != "" {
						t.Fatalf("%s: trailer error %q", label, line.Error)
					}
				}
			}
			if trailers != 1 || len(streamed) != len(resp.Answers) {
				t.Fatalf("%s: %d answers and %d trailers, want %d and 1", label, len(streamed), trailers, len(resp.Answers))
			}
			checkWire(label, streamed, nk)
		}

		label := "near " + tc.name
		code, body := get("/v1/near?" + q)
		if wantRejected(label, code, body) {
			continue
		}
		var near struct {
			Nodes []struct {
				ID         banks.NodeID `json:"id"`
				Activation float64      `json:"activation"`
			} `json:"nodes"`
		}
		if err := json.Unmarshal(body, &near); err != nil {
			t.Fatalf("%s: %v\n%s", label, err, body)
		}
		if tc.empty != (len(near.Nodes) == 0) {
			t.Fatalf("%s: %d nodes (empty expected: %v)", label, len(near.Nodes), tc.empty)
		}
		for i, nd := range near.Nodes {
			if !(nd.Activation > 0) || (i > 0 && nd.Activation > near.Nodes[i-1].Activation) {
				t.Fatalf("%s: node %d is %+v", label, i, nd)
			}
		}
	}
}
