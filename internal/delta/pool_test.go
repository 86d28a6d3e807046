package delta

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"banks/internal/core"
	"banks/internal/engine"
	"banks/internal/graph"
	"banks/internal/prestige"
)

// TestPooledScratchAcrossViews pins the pooled per-search scratch of the
// core algorithms against views of different sizes. One engine serves
// searches that alternate between the base View and an overlay View whose
// appended nodes the query reaches (a larger NumNodes, so a scratch sized
// for the base must grow, and a grown one must serve the base again).
// Some searches are cancelled mid-run, leaving their scratch full of
// state, and the searches after them reuse it. Every completed answer
// list must stay bit-identical to the same search over a from-scratch
// Build, for all three algorithms plus Near.
func TestPooledScratchAcrossViews(t *testing.T) {
	const mode = PrestigeUniform
	rng := rand.New(rand.NewSource(17))
	base, ref := newDiffBase(t, rng, 300, mode)
	g0, ix0 := ref.build(t, mode, prestige.Options{})

	// The query terms: the vocabulary's most frequent ones, so searches
	// do enough work to be cut by a cancellation.
	counts := map[string]int{}
	for term, nodes := range ref.terms {
		counts[term] = len(nodes)
	}
	vocab := append([]string{}, diffVocab...)
	sort.SliceStable(vocab, func(i, j int) bool { return counts[vocab[i]] > counts[vocab[j]] })
	queries := [][]string{vocab[:2], vocab[:3], {vocab[1], vocab[3]}}

	// Append two nodes: one matching every query term, wired both ways to
	// base nodes that match them, and a plain relay between it and a base
	// keyword node. Both sit past the base's last NodeID.
	n := graph.NodeID(base.NumNodes())
	hubs := ref.seeds(ix0, vocab[0])[:2]
	batch := []Op{
		{Kind: OpInsertNode, Table: diffTables[0], Text: fmt.Sprintf("%s %s %s %s", vocab[0], vocab[1], vocab[2], vocab[3])},
		{Kind: OpInsertNode, Table: diffTables[1], Text: ""},
		{Kind: OpInsertEdge, From: n, To: hubs[0], Weight: 0.5, EdgeType: 1},
		{Kind: OpInsertEdge, From: hubs[1], To: n, Weight: 0.75, EdgeType: 2},
		{Kind: OpInsertEdge, From: n + 1, To: n, Weight: 0.3, EdgeType: 0},
		{Kind: OpInsertEdge, From: n + 1, To: ref.seeds(ix0, vocab[1])[0], Weight: 0.3, EdgeType: 0},
	}
	over, _, err := base.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range batch {
		ref.apply(t, op)
	}
	g1, ix1 := ref.build(t, mode, prestige.Options{})
	if over.NumNodes() != base.NumNodes()+2 {
		t.Fatalf("overlay has %d nodes, want %d", over.NumNodes(), base.NumNodes()+2)
	}

	type world struct {
		name  string
		src   *engine.Source
		refG  *graph.Graph
		refKw func(term string) []graph.NodeID
	}
	srcBase, err := engine.NewSource(base, base.Lookup, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	srcOver, err := engine.NewSource(over, over.Lookup, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	worlds := []world{
		{"base", srcBase, g0, func(term string) []graph.NodeID { return ref.seeds(ix0, term) }},
		{"overlay", srcOver, g1, func(term string) []graph.NodeID { return ref.seeds(ix1, term) }},
	}

	// The cache is off so every call runs a search (and takes a scratch).
	eng, err := engine.New(g0, ix0, engine.Options{Workers: 5, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	refKeywords := func(w world, terms []string) [][]graph.NodeID {
		kw := make([][]graph.NodeID, len(terms))
		for i, term := range terms {
			kw[i] = w.refKw(term)
		}
		return kw
	}

	cut := 0
	for round := 0; round < 2; round++ {
		for qi, terms := range queries {
			for wi := range worlds {
				// Alternate the world order per query so a grown scratch
				// also serves the smaller base.
				w := worlds[(wi+qi+round)%2]
				eng.Swap(w.src)
				for _, algo := range core.Algos() {
					opts := core.Options{K: 8}
					want, err := core.Search(context.Background(), w.refG, algo, refKeywords(w, terms), opts)
					if err != nil {
						t.Fatal(err)
					}

					// A run cancelled from inside its first emission:
					// the search stops with state still queued.
					ctx, cancel := context.WithCancel(context.Background())
					copts := core.Options{K: 50, Emit: func(core.EmittedAnswer) { cancel() }}
					cres, err := eng.Search(ctx, engine.Query{Terms: terms, Algo: algo, Opts: copts})
					cancel()
					if err != nil {
						t.Fatalf("%s %s %v cancelled run: %v", w.name, algo, terms, err)
					}
					if cres.Stats.Truncated {
						cut++
					}

					got, err := eng.Search(context.Background(), engine.Query{Terms: terms, Algo: algo, Opts: opts})
					if err != nil {
						t.Fatal(err)
					}
					if gs, ws := diffSignature(got), diffSignature(want); gs != ws {
						t.Fatalf("%s %s %v: pooled search diverged from rebuild\npooled:\n%s\nrebuild:\n%s",
							w.name, algo, terms, gs, ws)
					}
				}
				wantNear, _, err := core.Near(context.Background(), w.refG, refKeywords(w, terms), core.Options{K: 8})
				if err != nil {
					t.Fatal(err)
				}
				gotNear, _, err := eng.Near(context.Background(), terms, core.Options{K: 8})
				if err != nil {
					t.Fatal(err)
				}
				if len(gotNear) != len(wantNear) {
					t.Fatalf("%s near %v: %d results, rebuild %d", w.name, terms, len(gotNear), len(wantNear))
				}
				for i := range gotNear {
					if gotNear[i].Node != wantNear[i].Node ||
						math.Float64bits(gotNear[i].Activation) != math.Float64bits(wantNear[i].Activation) {
						t.Fatalf("%s near %v #%d: pooled %+v, rebuild %+v", w.name, terms, i, gotNear[i], wantNear[i])
					}
				}
			}
		}
	}
	if cut == 0 {
		t.Fatal("no cancelled run was cut short; the test no longer exercises reuse after cancellation")
	}
}
