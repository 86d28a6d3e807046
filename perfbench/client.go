package main

// HTTP client operations against banksd and banksrouter, and the answer
// oracles that judge their responses.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"time"

	"banks"
)

// wireStats is the §5.2 counter block of a search response.
type wireStats struct {
	NodesExplored    int     `json:"nodes_explored"`
	NodesTouched     int     `json:"nodes_touched"`
	EdgesRelaxed     int     `json:"edges_relaxed"`
	AnswersGenerated int     `json:"answers_generated"`
	DurationMS       float64 `json:"duration_ms"`
}

// searchReply is what the benchmark reads from a /v1/search response.
type searchReply struct {
	Truncated bool            `json:"truncated"`
	Answers   json.RawMessage `json:"answers"`
	Stats     wireStats       `json:"stats"`
}

// result is one measured client operation.
type result struct {
	// Total is request start → response fully read; First is request
	// start → first NDJSON answer line (streams with answers only).
	Total, First time.Duration
	Bytes        int
	Reply        searchReply
	// Err is set for anything that counts as failed: transport errors,
	// non-200 statuses (refusals included), truncation, malformed bodies.
	Err error
}

// client issues benchmark requests. Its transport may be traced.
type client struct {
	hc *http.Client
}

func newClient(rt http.RoundTripper) *client {
	return &client{hc: &http.Client{Transport: rt}}
}

// newTransport is the loopback transport used by clients and routers.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     30 * time.Second,
	}
}

func searchURL(base, path string, p pair) string {
	v := url.Values{}
	v.Set("q", p.Query())
	v.Set("algo", p.Algo)
	v.Set("k", strconv.Itoa(p.k()))
	v.Set("max_nodes", strconv.Itoa(p.maxNodes()))
	v.Set("timeout", strconv.Itoa(searchTimeoutMS)+"ms")
	return base + path + "?" + v.Encode()
}

// search runs one /v1/search request.
func (c *client) search(ctx context.Context, base string, p pair) result {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, searchURL(base, "/v1/search", p), nil)
	if err != nil {
		return result{Err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return result{Err: fmt.Errorf("transport: %w", err)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := result{Total: time.Since(start), Bytes: len(body)}
	switch {
	case err != nil:
		r.Err = fmt.Errorf("read body: %w", err)
	case resp.StatusCode != http.StatusOK:
		r.Err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	default:
		if err := json.Unmarshal(body, &r.Reply); err != nil {
			r.Err = fmt.Errorf("decode: %w", err)
		} else if r.Reply.Truncated {
			r.Err = errors.New("truncated")
		}
	}
	return r
}

// streamLine is one NDJSON line of /v1/search/stream.
type streamLine struct {
	Type      string          `json:"type"`
	Answer    json.RawMessage `json:"answer"`
	Truncated bool            `json:"truncated"`
	Answers   int             `json:"answers"`
	Error     string          `json:"error"`
	Stats     wireStats       `json:"stats"`
}

// stream runs one /v1/search/stream request, timing the first answer
// line, and reassembles the answers into a searchReply.
func (c *client) stream(ctx context.Context, base string, p pair) result {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, searchURL(base, "/v1/search/stream", p), nil)
	if err != nil {
		return result{Err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return result{Err: fmt.Errorf("transport: %w", err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return result{Err: fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)}
	}
	var r result
	var answers []json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	trailer := false
	for sc.Scan() {
		line := sc.Bytes()
		r.Bytes += len(line) + 1
		var l streamLine
		if err := json.Unmarshal(line, &l); err != nil {
			return result{Err: fmt.Errorf("decode stream line: %w", err)}
		}
		switch l.Type {
		case "answer":
			if len(answers) == 0 {
				r.First = time.Since(start)
			}
			answers = append(answers, append(json.RawMessage(nil), l.Answer...))
		case "trailer":
			trailer = true
			switch {
			case l.Error != "":
				r.Err = fmt.Errorf("stream error: %s", l.Error)
			case l.Truncated:
				r.Err = errors.New("truncated")
			case l.Answers != len(answers):
				r.Err = fmt.Errorf("trailer counts %d answers, got %d", l.Answers, len(answers))
			}
			r.Reply.Stats = l.Stats
		}
	}
	r.Total = time.Since(start)
	if err := sc.Err(); err != nil {
		return result{Err: fmt.Errorf("read stream: %w", err)}
	}
	if !trailer && r.Err == nil {
		r.Err = errors.New("stream ended without trailer")
	}
	if r.Reply.Answers, err = json.Marshal(answers); err != nil {
		r.Err = err
	}
	if answers == nil {
		r.Reply.Answers = json.RawMessage("[]")
	}
	return r
}

// mutateReply is the part of a /v1/mutate response the benchmark needs.
type mutateReply struct {
	Applied    int     `json:"applied"`
	Assigned   []int64 `json:"assigned"`
	Generation uint64  `json:"generation"`
	WALOffset  *int64  `json:"wal_offset"`
	Durable    bool    `json:"durable"`
}

// post sends a JSON body and decodes a 200 reply into out.
func (c *client) post(ctx context.Context, u string, body, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: HTTP %d: %.200s", u, resp.StatusCode, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// getJSON fetches u and decodes a 200 reply.
func (c *client) getJSON(ctx context.Context, u string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// canonical re-encodes JSON with sorted keys and no spaces: the
// `jq -cS` form the answer oracles compare.
func canonical(raw []byte) ([]byte, error) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// sameAnswers is the byte-equality oracle: two answer lists agree when
// their canonical encodings are identical.
func sameAnswers(a, b []byte) error {
	ca, err := canonical(a)
	if err != nil {
		return fmt.Errorf("answers: %w", err)
	}
	cb, err := canonical(b)
	if err != nil {
		return fmt.Errorf("reference answers: %w", err)
	}
	if !bytes.Equal(ca, cb) {
		return fmt.Errorf("answers differ: %.160s vs %.160s", ca, cb)
	}
	return nil
}

// wireAnswer is the label-free content of one answer tree.
type wireAnswer struct {
	Root      int64   `json:"root"`
	Score     float64 `json:"score"`
	EdgeScore float64 `json:"edge_score"`
	NodeScore float64 `json:"node_score"`
	Nodes     []struct {
		ID int64 `json:"id"`
	} `json:"nodes"`
	Edges []struct {
		From    int64   `json:"from"`
		To      int64   `json:"to"`
		Forward bool    `json:"forward"`
		Weight  float64 `json:"weight"`
	} `json:"edges"`
	KeywordNodes []int64   `json:"keyword_nodes"`
	PathWeights  []float64 `json:"path_weights"`
}

// matchesLibrary is the in-process oracle: the served answers must equal
// what DB.SearchTerms returns for the same query, tree for tree.
func matchesLibrary(raw []byte, want []*banks.Answer) error {
	var got []wireAnswer
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("decode answers: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, library has %d", len(got), len(want))
	}
	for i, a := range want {
		g := got[i]
		ids := make([]int64, len(g.Nodes))
		for j, n := range g.Nodes {
			ids[j] = n.ID
		}
		wantIDs := make([]int64, len(a.Nodes))
		for j, n := range a.Nodes {
			wantIDs[j] = int64(n)
		}
		kws := make([]int64, len(a.KeywordNodes))
		for j, n := range a.KeywordNodes {
			kws[j] = int64(n)
		}
		edges := make([][2]int64, len(g.Edges))
		for j, e := range g.Edges {
			edges[j] = [2]int64{e.From, e.To}
		}
		wantEdges := make([][2]int64, len(a.Edges))
		for j, e := range a.Edges {
			wantEdges[j] = [2]int64{int64(e.From), int64(e.To)}
		}
		pw := a.PathWeights
		if pw == nil {
			pw = []float64{}
		}
		gpw := g.PathWeights
		if gpw == nil {
			gpw = []float64{}
		}
		switch {
		case g.Root != int64(a.Root):
			return fmt.Errorf("answer %d: root %d, library %d", i, g.Root, a.Root)
		case g.Score != a.Score || g.EdgeScore != a.EdgeScore || g.NodeScore != a.NodeScore:
			return fmt.Errorf("answer %d: score %v/%v/%v, library %v/%v/%v", i,
				g.Score, g.EdgeScore, g.NodeScore, a.Score, a.EdgeScore, a.NodeScore)
		case !reflect.DeepEqual(ids, wantIDs):
			return fmt.Errorf("answer %d: nodes %v, library %v", i, ids, wantIDs)
		case !reflect.DeepEqual(edges, wantEdges):
			return fmt.Errorf("answer %d: edges %v, library %v", i, edges, wantEdges)
		case !reflect.DeepEqual(g.KeywordNodes, kws):
			return fmt.Errorf("answer %d: keyword nodes %v, library %v", i, g.KeywordNodes, kws)
		case !reflect.DeepEqual(gpw, pw):
			return fmt.Errorf("answer %d: path weights %v, library %v", i, gpw, pw)
		}
	}
	return nil
}

// findsNodes is the read-your-writes oracle: a single-term query for a
// generated term must return exactly the nodes carrying it, each as its
// own one-node answer.
func findsNodes(raw []byte, nodes []int64) error {
	var got []wireAnswer
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("decode answers: %w", err)
	}
	var found []int64
	for _, a := range got {
		if len(a.KeywordNodes) != 1 {
			return fmt.Errorf("answer rooted at %d covers %v for one keyword", a.Root, a.KeywordNodes)
		}
		found = append(found, a.KeywordNodes[0])
	}
	want := append([]int64(nil), nodes...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(found, func(i, j int) bool { return found[i] < found[j] })
	if !reflect.DeepEqual(found, want) {
		return fmt.Errorf("found nodes %v, want %v", found, want)
	}
	return nil
}
