package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"banks"
	"banks/internal/datagen"
)

// The tail percentile must have at least ten samples beyond it before it
// is reported as trustworthy, and the count is exact.
func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 0.90, 10}, {99, 0.90, 9}, {200, 0.95, 10}, {199, 0.95, 9},
		{1000, 0.99, 10}, {10, 0.5, 5}, {1, 0.95, 0}, {0, 0.95, 0},
	} {
		if got := beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted
	}
	tl := tailOf(xs, 0.95)
	if tl.N != 200 || tl.Value != 190 || tl.Beyond != 10 || !tl.ok() {
		t.Errorf("tailOf(200 samples, p95) = %+v, want N 200, value 190, 10 beyond", tl)
	}
	if tailOf(xs[:150], 0.95).ok() {
		t.Error("150 samples cannot support a p95 with ten beyond it")
	}
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("median of 1,2,3 is not 2")
	}
}

// Query lists, Zipf draws and mutation traces are pure functions of the
// seed.
func TestInputsRepeatForASeed(t *testing.T) {
	ds, db, err := buildDataset()
	if err != nil {
		t.Fatal(err)
	}
	q := newQueryGen(ds, db)
	a, b := distinctList(q, 7, 4), distinctList(q, 7, 4)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("distinct lists differ for one seed (%d vs %d pairs)", len(a), len(b))
	}
	// Another seed plays the same pool of pairs in another order.
	other := distinctList(q, 8, 4)
	keys := func(l []pair) []string {
		var ks []string
		for _, p := range l {
			ks = append(ks, p.Key())
		}
		sort.Strings(ks)
		return ks
	}
	if !reflect.DeepEqual(keys(a), keys(other)) {
		t.Error("seeds 7 and 8 draw different distinct pools")
	}
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 7 and 8 gave the same distinct list")
	}
	seen := map[string]bool{}
	for _, p := range a {
		if seen[p.Key()] {
			t.Fatalf("distinct list repeats %s", p.Key())
		}
		seen[p.Key()] = true
	}
	if !reflect.DeepEqual(hotSet(q, 7, 12, algoNames), hotSet(q, 7, 12, algoNames)) {
		t.Error("hot sets differ for one seed")
	}
	if !reflect.DeepEqual(zipfDraws(7, 1, 24, 500), zipfDraws(7, 1, 24, 500)) {
		t.Error("Zipf draws differ for one seed")
	}
	if reflect.DeepEqual(zipfDraws(7, 0, 24, 500), zipfDraws(7, 1, 24, 500)) {
		t.Error("the two clients draw the same Zipf sequence")
	}
	g1, g2 := newTraceGen(7, 1000), newTraceGen(7, 1000)
	for i := 0; i < 20; i++ {
		x, y := g1.batch(4), g2.batch(4)
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("mutation batch %d differs for one seed", i)
		}
	}
	if !reflect.DeepEqual(g1.holders, g2.holders) {
		t.Error("term holders differ for one seed")
	}
}

// The distinct list is longer than twice the cache and every prefix of a
// round mixes all algorithms and both endpoints.
func TestDistinctListShape(t *testing.T) {
	ds, db, err := buildDataset()
	if err != nil {
		t.Fatal(err)
	}
	list := distinctList(newQueryGen(ds, db), 1, distinctPerCell)
	if len(list) <= 2*cacheEntries {
		t.Fatalf("distinct list has %d pairs, need more than %d", len(list), 2*cacheEntries)
	}
	algos, streams := map[string]int{}, 0
	for i, p := range list[:60] {
		algos[p.Algo]++
		if streamAt(i) {
			streams++
		}
	}
	if len(algos) != 3 || algos["bidirectional"] != 20 || streams != 30 {
		t.Errorf("first two rounds: algorithms %v, %d streams; want 20 each and 30 streams", algos, streams)
	}
}

// The open-loop schedule the read-write writer runs on is timed from
// when each request was due, so a stall is charged to the requests
// queued behind it, and its lateness is what the generator reports.
func TestOpenLoopTimedFromDue(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			time.Sleep(120 * time.Millisecond) // a stall longer than the period
		}
		w.Write([]byte(`{"applied":1,"generation":0,"wal_offset":1,"durable":true}`))
	}))
	defer srv.Close()
	c := newClient(http.DefaultTransport)
	start := time.Now()
	period := 40 * time.Millisecond
	late, lat := openLoop(start, period, start.Add(3*period), func() (time.Time, bool) {
		err := c.post(t.Context(), srv.URL, map[string]any{}, &mutateReply{})
		return time.Now(), err == nil
	})
	if len(late) != 3 || len(lat) != 3 {
		t.Fatalf("%d sends and %d acks, want 3 of each", len(late), len(lat))
	}
	// Request 1 was due at 40ms but could only be sent after the 120ms
	// stall: it is late by ~80ms, and its latency counts that wait.
	if late[1] < 70 || lat[1] < 70 {
		t.Errorf("second request: late %.1f ms, latency %.1f ms; both should include the ~80 ms stall", late[1], lat[1])
	}
	if lat[0] < 120 {
		t.Errorf("first request latency %.1f ms, want >= 120", lat[0])
	}
	// A failed op is sent (and late) but has no latency.
	start = time.Now()
	late, lat = openLoop(start, period, start.Add(period), func() (time.Time, bool) { return time.Now(), false })
	if len(late) != 1 || len(lat) != 0 {
		t.Errorf("one failed op: %d lateness and %d latency samples, want 1 and 0", len(late), len(lat))
	}
}

// Self time subtracts the union of the children's intervals, clipped to
// the parent, so overlapping children (a hedge racing its primary
// attempt) are counted once.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := Span{ID: 1, Start: 0, End: 100}
	kids := []Span{
		{Parent: 1, Start: 10, End: 40},
		{Parent: 1, Start: 30, End: 50},  // overlaps the first
		{Parent: 1, Start: 45, End: 48},  // inside the second
		{Parent: 1, Start: 90, End: 130}, // runs past the parent
		{Parent: 1, Start: 60, End: 60},  // empty
	}
	if got, want := selfTime(parent, kids), time.Duration(100-40-10); got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime with no children = %v, want 100ns", got)
	}
}

// Spans nest across the handler wrapper and the timing RoundTripper:
// client → router handler → shard attempt → shard handler.
func TestSpansNestAcrossLayers(t *testing.T) {
	tr := newTracer()
	shard := httptest.NewServer(tr.wrapHandler("banksd", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("shard"))
	})))
	defer shard.Close()
	hop := &http.Client{Transport: tr.transport("attempt", http.DefaultTransport)}
	front := httptest.NewServer(tr.wrapHandler("router", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, shard.URL+"/v1/search", nil)
		resp, err := hop.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		w.Write([]byte("merged"))
	})))
	defer front.Close()
	c := newClient(tr.transport("client", http.DefaultTransport))
	resp, err := c.hc.Get(front.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body) // EOF ends the client span
	resp.Body.Close()
	byName := map[string]Span{}
	for _, s := range tr.Spans() {
		byName[strings.Fields(s.Name)[0]] = s
	}
	root, rt, at, sh := byName["client"], byName["router"], byName["attempt"], byName["banksd"]
	if root.ID == 0 || rt.Parent != root.ID || at.Parent != rt.ID || sh.Parent != at.ID {
		t.Fatalf("span chain broken: %+v", byName)
	}
	for _, s := range []Span{rt, at, sh} {
		if s.Req != root.ID {
			t.Errorf("span %s has request %d, want %d", s.Name, s.Req, root.ID)
		}
	}
	if sh.Bytes != 5 || rt.Bytes != 6 {
		t.Errorf("handler byte counts %d/%d, want 5/6", sh.Bytes, rt.Bytes)
	}
}

// Each oracle rejects a perturbed answer.
func TestOraclesRejectPerturbedAnswers(t *testing.T) {
	ds, db, err := buildDataset()
	if err != nil {
		t.Fatal(err)
	}
	p := hotSet(newQueryGen(ds, db), 3, 1, algoNames)[0]
	res, err := db.SearchTerms(p.Terms, banks.Algorithm(p.Algo), banks.Options{K: topK, MaxNodes: maxNodes})
	if err != nil || len(res.Answers) < 2 {
		t.Fatalf("reference search: %v (%d answers)", err, len(res.Answers))
	}
	raw := encodeAnswers(t, res.Answers)
	if err := matchesLibrary(raw, res.Answers); err != nil {
		t.Fatalf("library oracle rejects the library's own answers: %v", err)
	}
	if err := sameAnswers(raw, raw); err != nil {
		t.Fatalf("byte oracle rejects identical answers: %v", err)
	}
	if differ, err := againstUnsharded("bidirectional", raw, raw); differ || err != nil {
		t.Fatalf("unsharded oracle rejects identical answers: differ %v, %v", differ, err)
	}

	perturb := map[string]func([]map[string]any){
		"score":   func(a []map[string]any) { a[0]["score"] = a[0]["score"].(float64) * (1 + 1e-15) },
		"order":   func(a []map[string]any) { a[0], a[1] = a[1], a[0] },
		"dropped": func(a []map[string]any) { delete(a[1], "nodes") },
		"root":    func(a []map[string]any) { a[0]["root"] = a[0]["root"].(float64) + 1 },
	}
	for name, f := range perturb {
		var v []map[string]any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		f(v)
		bad, _ := json.Marshal(v)
		if matchesLibrary(bad, res.Answers) == nil {
			t.Errorf("library oracle accepts a perturbed %s", name)
		}
		if sameAnswers(bad, raw) == nil {
			t.Errorf("byte oracle accepts a perturbed %s", name)
		}
		// Against the unsharded banksd, a routed difference fails
		// bidirectional and is only reported for the backward variants.
		if differ, err := againstUnsharded("bidirectional", bad, raw); !differ || err == nil {
			t.Errorf("unsharded oracle accepts a perturbed bidirectional %s (differ %v)", name, differ)
		}
		if differ, err := againstUnsharded("si-backward", bad, raw); !differ || err != nil {
			t.Errorf("unsharded oracle on a perturbed si-backward %s: differ %v, err %v; want a reported difference", name, differ, err)
		}
	}
	if matchesLibrary(raw, res.Answers[:len(res.Answers)-1]) == nil {
		t.Error("library oracle accepts an extra answer")
	}

	one := `[{"root":5,"keyword_nodes":[5]},{"root":9,"keyword_nodes":[9]}]`
	if err := findsNodes([]byte(one), []int64{9, 5}); err != nil {
		t.Errorf("read-your-writes oracle rejects a correct answer: %v", err)
	}
	for _, bad := range []struct {
		raw   string
		nodes []int64
	}{
		{`[]`, []int64{5}},
		{`[{"root":5,"keyword_nodes":[5]}]`, []int64{6}},
		{one, []int64{5}},
		{`[{"root":5,"keyword_nodes":[5,6]}]`, []int64{5}},
	} {
		if findsNodes([]byte(bad.raw), bad.nodes) == nil {
			t.Errorf("read-your-writes oracle accepts %s for nodes %v", bad.raw, bad.nodes)
		}
	}
}

// encodeAnswers renders library answers in the server's wire shape.
func encodeAnswers(t *testing.T, answers []*banks.Answer) []byte {
	t.Helper()
	var out []map[string]any
	for _, a := range answers {
		var nodes, edges []map[string]any
		for _, n := range a.Nodes {
			nodes = append(nodes, map[string]any{"id": n})
		}
		for _, e := range a.Edges {
			edges = append(edges, map[string]any{"from": e.From, "to": e.To, "forward": e.Forward, "weight": e.Weight})
		}
		out = append(out, map[string]any{
			"root": a.Root, "score": a.Score, "edge_score": a.EdgeScore, "node_score": a.NodeScore,
			"nodes": nodes, "edges": edges, "keyword_nodes": a.KeywordNodes, "path_weights": a.PathWeights,
		})
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// The closed loop shares one increasing index across clients and stops
// after the duration.
func TestClosedLoopIndexes(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	_, issued := closedLoop(30*time.Millisecond, func(_, i int) {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		time.Sleep(time.Millisecond)
	})
	if issued == 0 || len(seen) != issued {
		t.Fatalf("issued %d indexes, saw %d distinct", issued, len(seen))
	}
	for i := 0; i < issued; i++ {
		if !seen[i] {
			t.Fatalf("index %d never issued", i)
		}
	}
}

// buildDataset generates the DBLP dataset (fixed generator seed: the
// workload seed varies the requests, not the data) and builds the DB.
func buildDataset() (*datagen.Dataset, *banks.DB, error) {
	ds, err := datagen.DBLP(datagen.DefaultDBLP(datasetFactor))
	if err != nil {
		return nil, nil, fmt.Errorf("datagen: %w", err)
	}
	db, err := banks.Build(ds.DB, banks.BuildOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	return ds, db, nil
}

// zipfDraws returns the first n indexes client c draws.
func zipfDraws(seed int64, client, hot, n int) []int {
	z := newZipf(seed, client, hot)
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
