package core

import (
	"math"
	"testing"

	"banks/internal/graph"
)

// algorithms under test, by name, for table-driven runs (context-free
// wrappers around the ctx-aware entry points).
var algorithms = map[string]func(*graph.Graph, [][]graph.NodeID, Options) (*Result, error){
	"bidirectional": func(g *graph.Graph, kw [][]graph.NodeID, o Options) (*Result, error) {
		return Bidirectional(nil, g, kw, o)
	},
	"si-backward": func(g *graph.Graph, kw [][]graph.NodeID, o Options) (*Result, error) {
		return SIBackward(nil, g, kw, o)
	},
	"mi-backward": func(g *graph.Graph, kw [][]graph.NodeID, o Options) (*Result, error) {
		return MIBackward(nil, g, kw, o)
	},
}

// grayGraph builds the classic "Gray transaction" scenario:
//
//	author Gray(0), author Other(1)
//	paper  T1(2) "transaction" by Gray, paper T2(3) "transaction" by Other
//	writes W1(4): Gray→T1, W2(5): Other→T2
//
// writes rows have FKs to author and paper, so edges W→A and W→P.
func grayGraph(t *testing.T) (*graph.Graph, [][]graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder()
	gray := b.AddNode("author")  // 0
	other := b.AddNode("author") // 1
	t1 := b.AddNode("paper")     // 2
	t2 := b.AddNode("paper")     // 3
	w1 := b.AddNode("writes")    // 4
	w2 := b.AddNode("writes")    // 5
	for _, e := range [][2]graph.NodeID{{w1, gray}, {w1, t1}, {w2, other}, {w2, t2}} {
		if err := b.AddEdge(e[0], e[1], 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	p := make([]float64, g.NumNodes())
	for i := range p {
		p[i] = 1
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}
	// keywords: "gray" → {0}, "transaction" → {2,3}
	return g, [][]graph.NodeID{{gray}, {t1, t2}}
}

func TestAllAlgorithmsFindGrayTransaction(t *testing.T) {
	g, kw := grayGraph(t)
	for name, algo := range algorithms {
		res, err := algo(g, kw, Options{K: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("%s: no answers", name)
		}
		best := res.Answers[0]
		// Best answer must connect Gray(0) and T1(2) through W1(4).
		wantNodes := map[graph.NodeID]bool{0: true, 2: true, 4: true}
		got := map[graph.NodeID]bool{}
		for _, u := range best.Nodes {
			got[u] = true
		}
		for u := range wantNodes {
			if !got[u] {
				t.Fatalf("%s: best answer %v missing node %d", name, best, u)
			}
		}
		if got[3] || got[5] || got[1] {
			t.Fatalf("%s: best answer %v includes the unrelated paper's nodes", name, best)
		}
		// Root must be the writes node (only node with forward paths to
		// both keywords at minimal cost) — or the answer tree must at
		// least cover both keywords.
		if len(best.KeywordNodes) != 2 {
			t.Fatalf("%s: keyword nodes %v", name, best.KeywordNodes)
		}
		verifyAnswer(t, g, kw, best, Options{K: 5}.withDefaults())
	}
}

func TestAlgorithmsAgreeOnBestScore(t *testing.T) {
	g, kw := grayGraph(t)
	scores := map[string]float64{}
	for name, algo := range algorithms {
		res, err := algo(g, kw, Options{K: 10, DMax: 10})
		if err != nil {
			t.Fatal(err)
		}
		best := 0.0
		for _, a := range res.Answers {
			if a.Score > best {
				best = a.Score
			}
		}
		scores[name] = best
	}
	if math.Abs(scores["bidirectional"]-scores["si-backward"]) > 1e-9 ||
		math.Abs(scores["mi-backward"]-scores["si-backward"]) > 1e-9 {
		t.Fatalf("best scores diverge: %v", scores)
	}
}

func TestSingleNodeAnswer(t *testing.T) {
	// One paper contains both keywords: the minimal answer is the single
	// node itself.
	b := graph.NewBuilder()
	p := b.AddNode("paper")
	q := b.AddNode("paper")
	if err := b.AddEdge(p, q, 1, 0); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	_ = g.SetPrestige([]float64{1, 1})
	kw := [][]graph.NodeID{{p}, {p, q}}
	for name, algo := range algorithms {
		res, err := algo(g, kw, Options{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) == 0 {
			t.Fatalf("%s: no answers", name)
		}
		best := res.Answers[0]
		if best.Size() != 1 || best.Root != p {
			t.Fatalf("%s: want single-node answer at %d, got %v", name, p, best)
		}
		if best.EdgeScore != 0 {
			t.Fatalf("%s: single-node edge score = %v", name, best.EdgeScore)
		}
	}
}

func TestEmptyKeywordSetNoAnswers(t *testing.T) {
	g, kw := grayGraph(t)
	kw = append(kw, nil) // third keyword matches nothing
	for name, algo := range algorithms {
		res, err := algo(g, kw, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Answers) != 0 {
			t.Fatalf("%s: expected no answers with an unmatched keyword", name)
		}
	}
}

func TestInputValidation(t *testing.T) {
	g, kw := grayGraph(t)
	for name, algo := range algorithms {
		if _, err := algo(nil, kw, Options{}); err == nil {
			t.Errorf("%s: nil graph accepted", name)
		}
		if _, err := algo(g, nil, Options{}); err == nil {
			t.Errorf("%s: empty keywords accepted", name)
		}
		if _, err := algo(g, [][]graph.NodeID{{999}}, Options{}); err == nil {
			t.Errorf("%s: out-of-range node accepted", name)
		}
		too := make([][]graph.NodeID, MaxKeywords+1)
		for i := range too {
			too[i] = []graph.NodeID{0}
		}
		if _, err := algo(g, too, Options{}); err == nil {
			t.Errorf("%s: too many keywords accepted", name)
		}
		if _, err := algo(g, kw, Options{Mu: 2}); err == nil {
			t.Errorf("%s: bad Mu accepted", name)
		}
		if _, err := algo(g, kw, Options{K: -1}); err == nil {
			t.Errorf("%s: negative K accepted", name)
		}
		if _, err := algo(g, kw, Options{DMax: -2}); err == nil {
			t.Errorf("%s: negative DMax accepted", name)
		}
	}
}

func TestKLimitsOutput(t *testing.T) {
	g, kw := grayGraph(t)
	for name, algo := range algorithms {
		res, err := algo(g, kw, Options{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != 1 {
			t.Fatalf("%s: K=1 returned %d answers", name, len(res.Answers))
		}
	}
}

func TestZeroOptionsMeanPaperDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.K != DefaultK || o.Mu != DefaultMu || o.Lambda != DefaultLambda || o.DMax != DefaultDMax {
		t.Fatalf("withDefaults = %+v", o)
	}
	// Explicit values survive.
	o = Options{K: 3, Mu: 0.7, Lambda: 0.5, DMax: 4}.withDefaults()
	if o.K != 3 || o.Mu != 0.7 || o.Lambda != 0.5 || o.DMax != 4 {
		t.Fatalf("withDefaults clobbered explicit values: %+v", o)
	}
}

func TestMaxNodesBudget(t *testing.T) {
	g, kw := chainGraph(t, 64)
	for name, algo := range algorithms {
		res, err := algo(g, kw, Options{MaxNodes: 3, K: 10, DMax: 100})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.BudgetExhausted {
			t.Fatalf("%s: budget not reported exhausted", name)
		}
		if res.Stats.NodesExplored > 4 {
			t.Fatalf("%s: explored %d nodes with budget 3", name, res.Stats.NodesExplored)
		}
	}
}

// chainGraph builds a path of n nodes with keywords at the two ends.
func chainGraph(t *testing.T, n int) (*graph.Graph, [][]graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder()
	b.AddNodes("t", n)
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
	_ = g.SetPrestige(p)
	return g, [][]graph.NodeID{{0}, {graph.NodeID(n - 1)}}
}

// The 200-node chain gives an answer tree larger than the stack buffers
// buildAnswer starts from.
func TestChainAnswerPathLength(t *testing.T) {
	for _, n := range []int{6, 200} {
		g, kw := chainGraph(t, n)
		opts := Options{K: 1, DMax: n + 4}
		for name, algo := range algorithms {
			res, err := algo(g, kw, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) == 0 {
				t.Fatalf("%s: no answer on chain", name)
			}
			a := res.Answers[0]
			if a.Size() != n {
				t.Fatalf("%s: chain answer has %d nodes, want %d: %v", name, a.Size(), n, a)
			}
			verifyAnswer(t, g, kw, a, opts.withDefaults())
		}
	}
}

func TestDMaxCutsLongChain(t *testing.T) {
	// Ends are 20 hops apart; with DMax 8 the backward searches cannot
	// meet (depth limit), so no answers.
	g, kw := chainGraph(t, 21)
	for name, algo := range algorithms {
		res, err := algo(g, kw, Options{K: 1, DMax: 8})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != 0 {
			t.Fatalf("%s: DMax=8 should not bridge a 20-hop chain, got %v", name, res.Answers[0])
		}
	}
}

func TestMinimalityRootWithOneChildDiscarded(t *testing.T) {
	// v(0) → a(1), a → k1(2), a → k2(3). Keywords at k1, k2.
	// Tree rooted at v via single child a is non-minimal: the subtree at a
	// covers both keywords and must be the reported answer.
	b := graph.NewBuilder()
	v := b.AddNode("t")
	a := b.AddNode("t")
	k1 := b.AddNode("t")
	k2 := b.AddNode("t")
	_ = b.AddEdge(v, a, 1, 0)
	_ = b.AddEdge(a, k1, 1, 0)
	_ = b.AddEdge(a, k2, 1, 0)
	g := b.Build()
	_ = g.SetPrestige([]float64{1, 1, 1, 1})
	kw := [][]graph.NodeID{{k1}, {k2}}
	for name, algo := range algorithms {
		res, err := algo(g, kw, Options{K: 10, DMax: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, ans := range res.Answers {
			if ans.Root == v {
				t.Fatalf("%s: non-minimal tree rooted at %d emitted: %v", name, v, ans)
			}
		}
		if len(res.Answers) == 0 || res.Answers[0].Root != a {
			t.Fatalf("%s: expected answer rooted at %d, got %v", name, a, res.Answers)
		}
	}
}

func TestRootKeptWhenItCoversAKeyword(t *testing.T) {
	// r(0) matches keyword 1 and has a single child k(1) matching keyword
	// 2: the tree rooted at r is minimal despite the single child. An
	// extra edge x→k raises indeg(k), making the k-rooted rotation (which
	// must climb the backward edge k→r) strictly worse, so rotation dedup
	// (§4.6) keeps the r-rooted version.
	b := graph.NewBuilder()
	r := b.AddNode("t")
	k := b.AddNode("t")
	x := b.AddNode("t")
	_ = b.AddEdge(r, k, 1, 0)
	_ = b.AddEdge(x, k, 1, 0)
	g := b.Build()
	_ = g.SetPrestige([]float64{1, 1, 1})
	kw := [][]graph.NodeID{{r}, {k}}
	for name, algo := range algorithms {
		res, err := algo(g, kw, Options{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, ans := range res.Answers {
			if ans.Root == r && ans.Size() == 2 {
				found = true
			}
			if ans.Root == k && ans.Size() == 2 {
				t.Fatalf("%s: lower-scoring rotation rooted at %d output alongside the better one: %v",
					name, k, res.Answers)
			}
		}
		if !found {
			t.Fatalf("%s: two-node answer rooted at %d not found: %v", name, r, res.Answers)
		}
	}
}

// verifyAnswer checks the structural invariants of an emitted answer:
// rooted connected tree, full keyword coverage, consistent score.
func verifyAnswer(t *testing.T, g *graph.Graph, kw [][]graph.NodeID, a *Answer, opts Options) {
	t.Helper()
	if len(a.Nodes) == 0 || a.Nodes[0] != a.Root {
		t.Fatalf("answer nodes must start with root: %v", a)
	}
	// Each non-root node has exactly one incoming tree edge.
	parents := map[graph.NodeID]graph.NodeID{}
	for _, e := range a.Edges {
		if _, dup := parents[e.To]; dup {
			t.Fatalf("node %d has two parents: %v", e.To, a)
		}
		parents[e.To] = e.From
		if e.Weight <= 0 {
			t.Fatalf("non-positive tree edge weight: %v", a)
		}
	}
	if len(a.Edges) != len(a.Nodes)-1 {
		t.Fatalf("tree has %d edges for %d nodes: %v", len(a.Edges), len(a.Nodes), a)
	}
	// Connectivity: every node walks up to the root.
	for _, u := range a.Nodes {
		cur := u
		for steps := 0; cur != a.Root; steps++ {
			p, ok := parents[cur]
			if !ok || steps > len(a.Nodes) {
				t.Fatalf("node %d not connected to root: %v", u, a)
			}
			cur = p
		}
	}
	// Keyword coverage.
	inTree := map[graph.NodeID]bool{}
	for _, u := range a.Nodes {
		inTree[u] = true
	}
	for i, si := range kw {
		node := a.KeywordNodes[i]
		if !inTree[node] {
			t.Fatalf("keyword %d node %d not in tree: %v", i, node, a)
		}
		found := false
		for _, u := range si {
			if u == node {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("keyword %d node %d does not match the keyword: %v", i, node, a)
		}
	}
	// Score recomputation.
	want := overallScore(a.EdgeScore, a.NodeScore, opts.Lambda)
	if math.Abs(want-a.Score) > 1e-12 {
		t.Fatalf("score mismatch: %v vs %v", a.Score, want)
	}
	// Every edge must exist in the combined graph with that weight.
	for _, e := range a.Edges {
		w, _, _, ok := minEdge(g, e.From, e.To, nil)
		if !ok || math.Abs(w-e.Weight) > 1e-9 {
			t.Fatalf("tree edge %d→%d (w=%v) not in graph (min=%v, ok=%v)", e.From, e.To, e.Weight, w, ok)
		}
	}
}
