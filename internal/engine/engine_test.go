package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"banks/internal/core"
	"banks/internal/graph"
	"banks/internal/index"
)

// testGraph builds a simple chain graph 0→1→…→n-1 with keyword "alpha" on
// node 0, "omega" on node n-1, and "mid" on the middle node, all with
// uniform prestige.
func testGraph(t testing.TB, n int) (*graph.Graph, *index.Index) {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNodes("row", n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	p := make([]float64, n)
	for i := range p {
		p[i] = 1
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}
	ix := index.New()
	ix.AddText(0, "alpha")
	ix.AddText(graph.NodeID(n/2), "mid")
	ix.AddText(graph.NodeID(n-1), "omega")
	ix.Freeze(g)
	return g, ix
}

func TestNewValidation(t *testing.T) {
	g, ix := testGraph(t, 4)
	if _, err := New(nil, ix, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New(g, nil, Options{}); err == nil {
		t.Fatal("nil index accepted")
	}
	if _, err := New(g, ix, Options{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := New(g, ix, Options{DefaultTimeout: -time.Second}); err == nil {
		t.Fatal("negative timeout accepted")
	}
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() < 1 {
		t.Fatalf("defaulted workers = %d", e.Workers())
	}
}

func TestSearchBasic(t *testing.T) {
	g, ix := testGraph(t, 8)
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(context.Background(), Query{
		Terms: []string{"Alpha", "MID."}, // normalization is the engine's job
		Algo:  core.AlgoBidirectional,
		Opts:  core.Options{K: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	if _, err := e.Search(nil, Query{Terms: []string{"..."}, Algo: core.AlgoBidirectional}); err == nil {
		t.Fatal("keyword-free query accepted")
	}
	if _, err := e.Search(nil, Query{Terms: []string{"alpha"}, Algo: core.Algo("nope")}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestNear(t *testing.T) {
	g, ix := testGraph(t, 8)
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := e.Near(context.Background(), []string{"alpha", "mid"}, core.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || stats.NodesExplored == 0 {
		t.Fatalf("near query empty: %v %+v", res, stats)
	}
}

func TestCacheHit(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoSIBackward, Opts: core.Options{K: 2}}
	first, err := e.Search(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	// Same query with differently-cased terms and equivalent (defaulted)
	// options must hit the same entry.
	again, err := e.Search(nil, Query{Terms: []string{"ALPHA", "Omega"}, Algo: core.AlgoSIBackward, Opts: core.Options{K: 2, Mu: core.DefaultMu}})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("second search did not return the cached result")
	}
	hits, misses := e.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestCacheDisabledAndUncacheable(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional}
	r1, _ := e.Search(nil, q)
	r2, _ := e.Search(nil, q)
	if r1 == r2 {
		t.Fatal("cache disabled but result was shared")
	}
	if h, m := e.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("disabled cache counted hits=%d misses=%d", h, m)
	}

	e2, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Queries with callback options must bypass the cache.
	qf := Query{
		Terms: []string{"alpha", "omega"},
		Algo:  core.AlgoBidirectional,
		Opts:  core.Options{EdgeFilter: func(graph.EdgeType, bool) bool { return true }},
	}
	if _, err := e2.Search(nil, qf); err != nil {
		t.Fatal(err)
	}
	if e2.CacheLen() != 0 {
		t.Fatal("callback query was cached")
	}
}

func TestCacheEviction(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional},
		{Terms: []string{"alpha", "mid"}, Algo: core.AlgoBidirectional},
		{Terms: []string{"mid", "omega"}, Algo: core.AlgoBidirectional},
	}
	for _, q := range queries {
		if _, err := e.Search(nil, q); err != nil {
			t.Fatal(err)
		}
	}
	if e.CacheLen() != 2 {
		t.Fatalf("cache len = %d, want 2", e.CacheLen())
	}
	// The oldest entry was evicted: re-running it is a miss.
	if _, err := e.Search(nil, queries[0]); err != nil {
		t.Fatal(err)
	}
	if hits, misses := e.CacheStats(); hits != 0 || misses != 4 {
		t.Fatalf("cache stats hits=%d misses=%d, want 0/4", hits, misses)
	}
}

func TestTruncatedResultNotCached(t *testing.T) {
	// The full search on this graph takes hundreds of milliseconds; the 5ms
	// engine deadline fires mid-search (it is long enough that the idle
	// pool's slot wait never consumes it, so Search cannot fail outright).
	g, ix := testGraph(t, 8192)
	e, err := New(g, ix, Options{DefaultTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional, Opts: core.Options{DMax: 8192}}
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Fatal("5ms deadline did not truncate the search")
	}
	if e.CacheLen() != 0 {
		t.Fatal("truncated result was cached")
	}
}

func TestExpiredDeadlineFailsFastAndIsNotCached(t *testing.T) {
	// A deadline that is effectively already expired covers queue time too:
	// Search either fails with DeadlineExceeded while waiting for a slot or
	// returns a truncated partial result — never a cached full answer.
	g, ix := testGraph(t, 64)
	e, err := New(g, ix, Options{DefaultTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional}
	start := time.Now()
	res, err := e.Search(context.Background(), q)
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("expired deadline took %v", elapsed)
	}
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("unexpected error %v", err)
		}
	} else if !res.Stats.Truncated {
		t.Fatal("expired deadline returned a full result")
	}
	if e.CacheLen() != 0 {
		t.Fatal("expired-deadline result was cached")
	}
}

func TestPoolBlocksAndRespectsContext(t *testing.T) {
	g, ix := testGraph(t, 64)
	e, err := New(g, ix, Options{Workers: 1, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single worker slot with a search whose edge filter blocks
	// until released.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blockingQ := Query{
		Terms: []string{"alpha", "omega"},
		Algo:  core.AlgoSIBackward,
		Opts: core.Options{EdgeFilter: func(graph.EdgeType, bool) bool {
			once.Do(func() { close(entered); <-release })
			return true
		}},
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Search(context.Background(), blockingQ)
		done <- err
	}()
	<-entered

	// A second search cannot get a slot; cancelling its context must fail
	// it with ctx.Err() while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := e.Search(ctx, Query{Terms: []string{"alpha", "mid"}, Algo: core.AlgoSIBackward})
		waitErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the slot wait
	cancel()
	if err := <-waitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting search returned %v, want context.Canceled", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocking search failed: %v", err)
	}
}

func TestSearchBatch(t *testing.T) {
	g, ix := testGraph(t, 32)
	e, err := New(g, ix, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	deep := core.Options{DMax: 64} // the chain is longer than the default depth cutoff
	qs := []Query{
		{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional, Opts: deep},
		{Terms: []string{"..."}, Algo: core.AlgoBidirectional}, // no keywords: fails alone
		{Terms: []string{"alpha", "mid"}, Algo: core.AlgoSIBackward, Opts: deep},
		{Terms: []string{"mid", "omega"}, Algo: core.AlgoMIBackward, Opts: deep},
		{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional, Opts: deep}, // duplicate: cache hit
	}
	results, errs := e.SearchBatch(context.Background(), qs)
	if len(results) != len(qs) || len(errs) != len(qs) {
		t.Fatalf("batch sizes %d/%d", len(results), len(errs))
	}
	for i, r := range results {
		if i == 1 {
			if errs[i] == nil {
				t.Fatal("keyword-free batch entry did not fail")
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if r == nil || len(r.Answers) == 0 {
			t.Fatalf("query %d: no answers", i)
		}
	}
	// The in-batch duplicate (query 4) may or may not hit the cache — its
	// dispatcher can reach the lookup while query 0 is still in flight
	// (query 1 fails instantly, freeing its dispatcher early), which is a
	// legitimate miss. What IS guaranteed: after the batch completes, the
	// result is cached, so a repeat query must share it.
	again, againErrs := e.SearchBatch(context.Background(), qs[:1])
	if againErrs[0] != nil {
		t.Fatalf("repeat query: %v", againErrs[0])
	}
	if again[0] != results[0] {
		t.Fatal("repeat query did not share the cached result")
	}

	// Empty batch is a no-op.
	r0, e0 := e.SearchBatch(nil, nil)
	if len(r0) != 0 || len(e0) != 0 {
		t.Fatal("empty batch returned entries")
	}
}

// TestSingleFlight fires identical cacheable queries at once, half through
// Search and half through SearchStream: exactly one search may run (one
// miss), and every caller must get that search's answers.
func TestSingleFlight(t *testing.T) {
	g, ix := testGraph(t, 512)
	e, err := New(g, ix, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional, Opts: core.Options{DMax: 1024}}
	const callers = 8
	answers := make([][]*core.Answer, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				res, err := e.Search(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				answers[i] = res.Answers
				return
			}
			st, err := e.SearchStream(context.Background(), q, StreamOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			for ev := range st.Answers() {
				answers[i] = append(answers[i], ev.Answer)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if _, misses := e.CacheStats(); misses != 1 {
		t.Fatalf("%d searches ran for one key, want 1", misses)
	}
	for i := 1; i < callers; i++ {
		if len(answers[i]) != len(answers[0]) || len(answers[0]) == 0 {
			t.Fatalf("caller %d got %d answers, caller 0 got %d", i, len(answers[i]), len(answers[0]))
		}
		for j := range answers[i] {
			if answers[i][j] != answers[0][j] {
				t.Fatalf("caller %d answer %d is not the shared search's", i, j)
			}
		}
	}
}

// TestMemoLifecycle: a miss returns no memo; hits through Search,
// SearchStream and SearchBatch share their entry's one memo, whose first
// Store wins; an evicted entry's memo goes with it, and a disabled cache
// hands out none.
func TestMemoLifecycle(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoSIBackward, Opts: core.Options{K: 2}}
	other := Query{Terms: []string{"alpha", "mid"}, Algo: core.AlgoSIBackward}
	res, memo, err := e.SearchMemo(nil, q)
	if err != nil || memo != nil {
		t.Fatalf("miss: memo %v, err %v", memo, err)
	}
	hit, memo, err := e.SearchMemo(nil, q)
	if err != nil || hit != res || memo == nil || memo.Answers() != nil {
		t.Fatalf("first hit: result shared %v, memo %v, err %v", hit == res, memo, err)
	}
	enc := [][]byte{[]byte("a"), []byte("b")}
	if got := memo.Store(enc); &got[0] != &enc[0] {
		t.Fatal("the first Store did not win")
	}
	if got := memo.Store([][]byte{[]byte("c")}); &got[0] != &enc[0] {
		t.Fatal("a later Store replaced the memoized answers")
	}
	st, err := e.SearchStream(nil, q, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for range st.Answers() {
	}
	if st.Memo() != memo {
		t.Fatal("a stream replay did not get its entry's memo")
	}
	_, memos, errs := e.SearchBatchMemo(nil, []Query{q})
	if errs[0] != nil || memos[0] != memo {
		t.Fatalf("batch hit: memo %v, err %v", memos[0], errs[0])
	}

	// Evict q's entry; its next run is a miss and the entry after that
	// starts with an empty memo.
	if _, _, err := e.SearchMemo(nil, other); err != nil {
		t.Fatal(err)
	}
	if _, memo, _ := e.SearchMemo(nil, q); memo != nil {
		t.Fatal("a miss after eviction returned a memo")
	}
	if _, memo, _ := e.SearchMemo(nil, q); memo == nil || memo.Answers() != nil {
		t.Fatal("the re-cached entry kept the evicted entry's memo")
	}

	off, err := New(g, ix, Options{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, memo, _ := off.SearchMemo(nil, q); memo != nil {
			t.Fatal("a disabled cache handed out a memo")
		}
	}
}

// TestMemoConcurrentHits: concurrent first hits on one entry all read
// back the one set of answers that won the Store.
func TestMemoConcurrentHits(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional}
	if _, err := e.Search(nil, q); err != nil {
		t.Fatal(err)
	}
	const n = 8
	got := make([][][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, memo, err := e.SearchMemo(context.Background(), q)
			if err != nil || memo == nil {
				t.Errorf("hit: memo %v, err %v", memo, err)
				return
			}
			enc := memo.Answers()
			if enc == nil {
				enc = memo.Store([][]byte{{byte(i)}})
			}
			got[i] = enc
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] == nil || &got[i][0][0] != &got[0][0][0] {
			t.Fatalf("hit %d read different memoized answers", i)
		}
	}
}
