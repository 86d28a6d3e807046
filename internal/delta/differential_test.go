package delta

// The differential proof behind the overlay: for randomized mutation
// traces, search over the overlay View must be bit-identical — float
// bits of every score and weight — to search over a from-scratch Build
// of the mutated graph, for all three algorithms, serial and parallel,
// plus Near. The harness also pins the overlay's keyword seeds, its full
// adjacency/prestige arrays, and the Materialize (compaction) output
// against the same reference.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"banks/internal/core"
	"banks/internal/graph"
	"banks/internal/index"
	"banks/internal/prestige"
)

var diffVocab = []string{
	"keyword", "search", "database", "query", "banks", "graph",
	"prestige", "steiner", "tree", "index", "join", "tuple",
}

var diffTables = []string{"paper", "author", "conf"}

// refEdge is one directed edge of the reference model.
type refEdge struct {
	u, v  graph.NodeID
	w     float64
	etype graph.EdgeType
	alive bool
}

// refModel replays a mutation trace against plain slices and rebuilds
// graph+index from scratch with the ordinary Build machinery — the
// independent implementation the overlay is diffed against.
type refModel struct {
	tables []string // per-node relation
	alive  []bool
	edges  []refEdge                        // base order, then insertion order
	terms  map[string]map[graph.NodeID]bool // live (term → node) pairs
}

func (r *refModel) addTermPair(term string, u graph.NodeID) {
	if r.terms[term] == nil {
		r.terms[term] = make(map[graph.NodeID]bool)
	}
	r.terms[term][u] = true
}

func (r *refModel) apply(t *testing.T, op Op) {
	t.Helper()
	switch op.Kind {
	case OpInsertNode:
		r.tables = append(r.tables, op.Table)
		r.alive = append(r.alive, true)
		u := graph.NodeID(len(r.tables) - 1)
		for _, term := range index.Tokenize(op.Text) {
			r.addTermPair(term, u)
		}
	case OpInsertEdge:
		r.edges = append(r.edges, refEdge{u: op.From, v: op.To, w: op.Weight, etype: op.EdgeType, alive: true})
	case OpDeleteNode:
		r.alive[op.Node] = false
		for i := range r.edges {
			if r.edges[i].u == op.Node || r.edges[i].v == op.Node {
				r.edges[i].alive = false
			}
		}
	case OpDeleteEdge:
		for i := range r.edges {
			if r.edges[i].u == op.From && r.edges[i].v == op.To {
				r.edges[i].alive = false
			}
		}
	case OpInsertTerm:
		r.addTermPair(index.Normalize(op.Term), op.Node)
	case OpDeleteTerm:
		delete(r.terms[index.Normalize(op.Term)], op.Node)
	default:
		t.Fatalf("unknown op kind %q", op.Kind)
	}
}

// build rebuilds graph + index from scratch. Tombstoned nodes stay as
// isolated placeholders so IDs are stable; their term pairs remain in
// the index and are filtered at seed time (mirroring the overlay's
// Lookup filter).
func (r *refModel) build(t *testing.T, mode PrestigeMode, popts prestige.Options) (*graph.Graph, *index.Index) {
	t.Helper()
	b := graph.NewBuilder()
	for _, table := range r.tables {
		b.AddNode(table)
	}
	for _, e := range r.edges {
		if !e.alive {
			continue
		}
		if err := b.AddEdge(e.u, e.v, e.w, e.etype); err != nil {
			t.Fatalf("reference AddEdge: %v", err)
		}
	}
	g := b.Build()
	var p []float64
	switch mode {
	case PrestigeUniform:
		p = make([]float64, g.NumNodes())
		for i := range p {
			p[i] = 1
		}
	case PrestigeIndegree:
		p = prestige.Indegree(g)
	default:
		var err error
		p, err = prestige.Compute(g, popts)
		if err != nil {
			t.Fatalf("reference prestige: %v", err)
		}
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}
	ix := index.New()
	for term, nodes := range r.terms {
		for u := range nodes {
			ix.AddTerm(u, term)
		}
	}
	ix.Freeze(g)
	return g, ix
}

// seeds is the reference keyword-seed list: index lookup minus
// tombstoned nodes (Freeze puts placeholders into relation postings;
// the mutated-graph semantics exclude them).
func (r *refModel) seeds(ix *index.Index, term string) []graph.NodeID {
	var out []graph.NodeID
	for _, u := range ix.Lookup(term) {
		if r.alive[u] {
			out = append(out, u)
		}
	}
	return out
}

// newDiffBase builds a random base world: graph, frozen index, reference
// model mirroring it, and the overlay view at version 0.
func newDiffBase(t *testing.T, rng *rand.Rand, n int, mode PrestigeMode) (*View, *refModel) {
	t.Helper()
	ref := &refModel{terms: make(map[string]map[graph.NodeID]bool)}
	b := graph.NewBuilder()
	ix := index.New()
	for i := 0; i < n; i++ {
		table := diffTables[rng.Intn(len(diffTables))]
		b.AddNode(table)
		ref.tables = append(ref.tables, table)
		ref.alive = append(ref.alive, true)
		for _, term := range pickTerms(rng, 1+rng.Intn(3)) {
			ix.AddTerm(graph.NodeID(i), term)
			ref.addTermPair(term, graph.NodeID(i))
		}
	}
	for u := 0; u < n; u++ {
		deg := rng.Intn(3)
		if rng.Intn(6) == 0 {
			deg += 2 + rng.Intn(5)
		}
		for j := 0; j < deg; j++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			w := 0.25 + rng.Float64()*3
			et := graph.EdgeType(rng.Intn(3))
			if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v), w, et); err != nil {
				t.Fatal(err)
			}
			ref.edges = append(ref.edges, refEdge{u: graph.NodeID(u), v: graph.NodeID(v), w: w, etype: et, alive: true})
		}
	}
	g := b.Build()
	popts := prestige.Options{}
	var p []float64
	switch mode {
	case PrestigeUniform:
		p = make([]float64, g.NumNodes())
		for i := range p {
			p[i] = 1
		}
	case PrestigeIndegree:
		p = prestige.Indegree(g)
	default:
		var err error
		p, err = prestige.Compute(g, popts)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}
	ix.Freeze(g)
	return NewView(g, ix, 0, mode, popts), ref
}

func pickTerms(rng *rand.Rand, k int) []string {
	out := make([]string, 0, k)
	for len(out) < k {
		out = append(out, diffVocab[rng.Intn(len(diffVocab))])
	}
	return out
}

// randomBatch generates a valid mutation batch against the current
// reference state (the generator avoids ops the overlay documents as
// rejected: edges on tombstones, self-loops, out-of-range IDs).
func randomBatch(rng *rand.Rand, ref *refModel) []Op {
	liveNodes := func() []graph.NodeID {
		var out []graph.NodeID
		for u, a := range ref.alive {
			if a {
				out = append(out, graph.NodeID(u))
			}
		}
		return out
	}
	size := 4 + rng.Intn(12)
	var batch []Op
	pending := len(ref.alive) // node count including this batch's inserts
	pendingTomb := map[graph.NodeID]bool{}
	pendingLive := liveNodes()
	for len(batch) < size {
		switch rng.Intn(10) {
		case 0, 1: // insert_node
			batch = append(batch, Op{
				Kind:  OpInsertNode,
				Table: diffTables[rng.Intn(len(diffTables))],
				Text:  strings.Join(pickTerms(rng, 1+rng.Intn(3)), " "),
			})
			pendingLive = append(pendingLive, graph.NodeID(pending))
			pending++
		case 2, 3, 4: // insert_edge
			if len(pendingLive) < 2 {
				continue
			}
			u := pendingLive[rng.Intn(len(pendingLive))]
			v := pendingLive[rng.Intn(len(pendingLive))]
			if u == v || pendingTomb[u] || pendingTomb[v] {
				continue
			}
			batch = append(batch, Op{
				Kind: OpInsertEdge, From: u, To: v,
				Weight:   0.25 + rng.Float64()*3,
				EdgeType: graph.EdgeType(rng.Intn(3)),
			})
		case 5: // delete_node (keep most of the graph alive)
			if len(pendingLive) < 8 {
				continue
			}
			u := pendingLive[rng.Intn(len(pendingLive))]
			if pendingTomb[u] {
				continue
			}
			pendingTomb[u] = true
			batch = append(batch, Op{Kind: OpDeleteNode, Node: u})
		case 6: // delete_edge: aim at a real edge half the time
			var u, v graph.NodeID
			if len(ref.edges) > 0 && rng.Intn(2) == 0 {
				e := ref.edges[rng.Intn(len(ref.edges))]
				u, v = e.u, e.v
			} else if len(pendingLive) >= 2 {
				u = pendingLive[rng.Intn(len(pendingLive))]
				v = pendingLive[rng.Intn(len(pendingLive))]
			} else {
				continue
			}
			batch = append(batch, Op{Kind: OpDeleteEdge, From: u, To: v})
		case 7, 8: // insert_term
			if len(pendingLive) == 0 {
				continue
			}
			u := pendingLive[rng.Intn(len(pendingLive))]
			if pendingTomb[u] {
				continue
			}
			batch = append(batch, Op{Kind: OpInsertTerm, Node: u, Term: diffVocab[rng.Intn(len(diffVocab))]})
		default: // delete_term
			if len(pendingLive) == 0 {
				continue
			}
			u := pendingLive[rng.Intn(len(pendingLive))]
			batch = append(batch, Op{Kind: OpDeleteTerm, Node: u, Term: diffVocab[rng.Intn(len(diffVocab))]})
		}
	}
	return batch
}

// diffSignature renders a result's deterministic content with exact
// float bits; wall-clock fields are excluded (the same exclusions the
// core differential harness makes).
func diffSignature(res *core.Result) string {
	var sb strings.Builder
	s := res.Stats
	fmt.Fprintf(&sb, "explored=%d touched=%d relaxed=%d generated=%d best=%x budget=%v truncated=%v\n",
		s.NodesExplored, s.NodesTouched, s.EdgesRelaxed, s.AnswersGenerated,
		math.Float64bits(s.BestGeneratedScore), s.BudgetExhausted, s.Truncated)
	for i, a := range res.Answers {
		fmt.Fprintf(&sb, "%d: root=%d score=%x edge=%x node=%x nodes=%v kw=%v\n",
			i, a.Root, math.Float64bits(a.Score), math.Float64bits(a.EdgeScore), math.Float64bits(a.NodeScore),
			a.Nodes, a.KeywordNodes)
		for _, e := range a.Edges {
			fmt.Fprintf(&sb, "   %d->%d w=%x t=%d f=%v\n", e.From, e.To, math.Float64bits(e.Weight), e.Type, e.Forward)
		}
		for _, w := range a.PathWeights {
			fmt.Fprintf(&sb, "   pw=%x\n", math.Float64bits(w))
		}
	}
	return sb.String()
}

// assertViewMatchesReference pins the overlay's structure against the
// rebuilt reference: node count, per-node adjacency (float bits),
// per-node prestige (float bits), max prestige, and keyword seeds for
// the whole vocabulary plus relation names.
func assertViewMatchesReference(t *testing.T, v *View, ref *refModel, g2 *graph.Graph, ix2 *index.Index) {
	t.Helper()
	if v.NumNodes() != g2.NumNodes() {
		t.Fatalf("NumNodes: overlay %d, reference %d", v.NumNodes(), g2.NumNodes())
	}
	for u := 0; u < g2.NumNodes(); u++ {
		id := graph.NodeID(u)
		a, b := v.Neighbors(id), g2.Neighbors(id)
		if len(a) != len(b) {
			t.Fatalf("node %d: overlay degree %d, reference %d\noverlay:  %v\nreference: %v", u, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d half %d: overlay %+v, reference %+v", u, i, a[i], b[i])
			}
		}
		if math.Float64bits(v.Prestige(id)) != math.Float64bits(g2.Prestige(id)) {
			t.Fatalf("node %d prestige: overlay %x, reference %x", u,
				math.Float64bits(v.Prestige(id)), math.Float64bits(g2.Prestige(id)))
		}
		if v.Table(id) != g2.Table(id) {
			t.Fatalf("node %d table: overlay %q, reference %q", u, v.Table(id), g2.Table(id))
		}
	}
	if math.Float64bits(v.MaxPrestige()) != math.Float64bits(g2.MaxPrestige()) {
		t.Fatalf("max prestige: overlay %x, reference %x",
			math.Float64bits(v.MaxPrestige()), math.Float64bits(g2.MaxPrestige()))
	}
	for _, term := range append(append([]string{}, diffVocab...), diffTables...) {
		got := v.Lookup(term)
		want := ref.seeds(ix2, term)
		if len(got) != len(want) {
			t.Fatalf("seeds(%q): overlay %v, reference %v", term, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seeds(%q): overlay %v, reference %v", term, got, want)
			}
		}
	}
}

// runQueries executes the acceptance sweep — all three algorithms plus
// Near — over overlay and reference, comparing signatures.
func runQueries(t *testing.T, rng *rand.Rand, v *View, ref *refModel, g2 *graph.Graph, ix2 *index.Index) {
	t.Helper()
	for q := 0; q < 3; q++ {
		nk := 2 + rng.Intn(2)
		terms := pickTerms(rng, nk)
		kwOverlay := make([][]graph.NodeID, 0, nk)
		kwRef := make([][]graph.NodeID, 0, nk)
		empty := false
		for _, term := range terms {
			so := v.Lookup(term)
			sr := ref.seeds(ix2, term)
			if len(so) == 0 {
				empty = true
			}
			kwOverlay = append(kwOverlay, so)
			kwRef = append(kwRef, sr)
		}
		if empty {
			continue
		}
		opts := core.Options{K: 5}
		for _, algo := range core.Algos() {
			ro, err := core.Search(context.Background(), v, algo, kwOverlay, opts)
			if err != nil {
				t.Fatalf("%s overlay search: %v", algo, err)
			}
			rr, err := core.Search(context.Background(), g2, algo, kwRef, opts)
			if err != nil {
				t.Fatalf("%s reference search: %v", algo, err)
			}
			if so, sr := diffSignature(ro), diffSignature(rr); so != sr {
				t.Fatalf("%s terms=%v diverged:\noverlay:\n%s\nreference:\n%s", algo, terms, so, sr)
			}
		}
		no, _, err := core.Near(context.Background(), v, kwOverlay, opts)
		if err != nil {
			t.Fatalf("overlay near: %v", err)
		}
		nr, _, err := core.Near(context.Background(), g2, kwRef, opts)
		if err != nil {
			t.Fatalf("reference near: %v", err)
		}
		if len(no) != len(nr) {
			t.Fatalf("near length: overlay %d, reference %d", len(no), len(nr))
		}
		for i := range no {
			if no[i].Node != nr[i].Node || math.Float64bits(no[i].Activation) != math.Float64bits(nr[i].Activation) {
				t.Fatalf("near %d: overlay %+v, reference %+v", i, no[i], nr[i])
			}
		}
	}
}

func TestDifferentialOverlayVsRebuild(t *testing.T) {
	cases := []struct {
		seed int64
		mode PrestigeMode
	}{
		{seed: 1, mode: PrestigeUniform},
		{seed: 2, mode: PrestigeIndegree},
		{seed: 3, mode: PrestigeRandomWalk},
		{seed: 4, mode: PrestigeUniform},
		{seed: 5, mode: PrestigeRandomWalk},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d/mode=%d", tc.seed, tc.mode), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(tc.seed))
			v, ref := newDiffBase(t, rng, 40+rng.Intn(40), tc.mode)
			for batchNo := 0; batchNo < 5; batchNo++ {
				batch := randomBatch(rng, ref)
				nv, _, err := v.Apply(batch)
				if err != nil {
					t.Fatalf("batch %d: %v", batchNo, err)
				}
				v = nv
				for _, op := range batch {
					ref.apply(t, op)
				}
				g2, ix2 := ref.build(t, tc.mode, prestige.Options{})
				assertViewMatchesReference(t, v, ref, g2, ix2)
				runQueries(t, rng, v, ref, g2, ix2)
			}

			// Compaction: the materialized graph must be structurally
			// identical to the reference rebuild, and the compacted
			// index must agree with the overlay's Lookup.
			g2, _ := ref.build(t, tc.mode, prestige.Options{})
			mg, mix, err := v.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			if mg.NumNodes() != g2.NumNodes() || mg.NumEdges() != g2.NumEdges() {
				t.Fatalf("materialized %d nodes/%d edges, reference %d/%d",
					mg.NumNodes(), mg.NumEdges(), g2.NumNodes(), g2.NumEdges())
			}
			for u := 0; u < g2.NumNodes(); u++ {
				id := graph.NodeID(u)
				a, b := mg.Neighbors(id), g2.Neighbors(id)
				if len(a) != len(b) {
					t.Fatalf("materialized node %d degree %d, reference %d", u, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("materialized node %d half %d: %+v vs %+v", u, i, a[i], b[i])
					}
				}
				if math.Float64bits(mg.Prestige(id)) != math.Float64bits(g2.Prestige(id)) {
					t.Fatalf("materialized node %d prestige mismatch", u)
				}
			}
			for _, term := range append(append([]string{}, diffVocab...), diffTables...) {
				got := mix.Lookup(term)
				want := v.Lookup(term)
				if len(got) != len(want) {
					t.Fatalf("compacted Lookup(%q)=%v, overlay %v", term, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("compacted Lookup(%q)=%v, overlay %v", term, got, want)
					}
				}
			}
		})
	}
}
