package core

// Differential/property harness: randomized graphs, every algorithm,
// several option shapes, and deterministic mid-search cancellation. The
// serial signatures of the whole sweep are pinned by digest
// (TestDifferentialSerialPinned), so any change to the search code that
// moves an answer, a float bit, a counter or a truncation point fails
// here; the golden tests pin the same outputs on the DBLP workload.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"banks/internal/graph"
)

// randomGraphSpec seeds one property-test case.
type randomGraphSpec struct {
	seed int64
	// hub adds one node with about 48 extra out-edges, so expansions of a
	// high-degree node are covered.
	hub bool
}

// buildRandomGraph generates a random graph with varied fan-out, edge
// types, weights and prestige distributions, plus a random multi-keyword
// query over it. All randomness is drawn from the seeded rng, so each
// spec is fully reproducible.
func buildRandomGraph(t testing.TB, spec randomGraphSpec) (*graph.Graph, [][]graph.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(spec.seed))
	n := 30 + rng.Intn(120)
	b := graph.NewBuilder()
	tables := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		b.AddNode(tables[rng.Intn(len(tables))])
	}
	addEdge := func(u, v int) {
		if u == v {
			return
		}
		w := 0.25 + rng.Float64()*3
		if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v), w, graph.EdgeType(rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	// Base fan-out: skewed out-degrees (most nodes sparse, some bushy).
	for u := 0; u < n; u++ {
		deg := rng.Intn(3)
		if rng.Intn(8) == 0 {
			deg += 3 + rng.Intn(6)
		}
		for j := 0; j < deg; j++ {
			addEdge(u, rng.Intn(n))
		}
	}
	if spec.hub {
		// One dense hub.
		hub := rng.Intn(n)
		for j := 0; j < 48; j++ {
			if other := rng.Intn(n); other != hub {
				addEdge(hub, other)
			}
		}
	}
	g := b.Build()

	// Prestige: uniform, uniform-random, or power-law-ish, per seed.
	p := make([]float64, g.NumNodes())
	switch rng.Intn(3) {
	case 0:
		for i := range p {
			p[i] = 1
		}
	case 1:
		for i := range p {
			p[i] = 0.05 + rng.Float64()
		}
	default:
		for i := range p {
			p[i] = 0.05 + math.Pow(rng.Float64(), 4)*8
		}
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}

	// Query: 2–4 keywords, 1–4 distinct matching nodes each.
	nk := 2 + rng.Intn(3)
	kw := make([][]graph.NodeID, nk)
	for i := range kw {
		seen := map[graph.NodeID]bool{}
		for len(kw[i]) < 1+rng.Intn(4) {
			u := graph.NodeID(rng.Intn(n))
			if !seen[u] {
				seen[u] = true
				kw[i] = append(kw[i], u)
			}
		}
	}
	return g, kw
}

// diffSignature renders everything deterministic about a result: the full
// answer structure with exact float bits, plus every Stats counter and
// flag. Wall-clock fields (Duration, GeneratedAt, OutputAt) are excluded.
func diffSignature(res *Result) string {
	var sb strings.Builder
	s := res.Stats
	fmt.Fprintf(&sb, "explored=%d touched=%d relaxed=%d generated=%d best=%x budget=%v truncated=%v\n",
		s.NodesExplored, s.NodesTouched, s.EdgesRelaxed, s.AnswersGenerated,
		math.Float64bits(s.BestGeneratedScore), s.BudgetExhausted, s.Truncated)
	for i, a := range res.Answers {
		fmt.Fprintf(&sb, "%d: root=%d score=%x edge=%x node=%x nodes=%v kw=%v explG=%d touchG=%d explO=%d touchO=%d\n",
			i, a.Root, math.Float64bits(a.Score), math.Float64bits(a.EdgeScore), math.Float64bits(a.NodeScore),
			a.Nodes, a.KeywordNodes, a.ExploredAtGen, a.TouchedAtGen, a.ExploredAtOut, a.TouchedAtOut)
		for _, e := range a.Edges {
			fmt.Fprintf(&sb, "   %d->%d w=%x t=%d f=%v\n", e.From, e.To, math.Float64bits(e.Weight), e.Type, e.Forward)
		}
		for _, w := range a.PathWeights {
			fmt.Fprintf(&sb, "   pw=%x\n", math.Float64bits(w))
		}
	}
	return sb.String()
}

// diffOptVariants are the option shapes each random case is swept over.
func diffOptVariants() []Options {
	return []Options{
		{K: 8},
		{K: 8, StrictBound: true},
		{K: 8, ActivationSum: true},
		{K: 8, MaxNodes: 40},
		{K: 8, EdgeFilter: func(t graph.EdgeType, forward bool) bool { return forward || t != 2 }},
	}
}

// countingCtx is a context whose Err flips to Canceled after a fixed
// number of Err consultations. The search cancellers consult Err at a
// deterministic, data-dependent cadence, so a countingCtx cancels a search
// at exactly the same position every run — which is what makes truncated
// results reproducible (and pinnable), where a wall-clock deadline would
// be racy.
type countingCtx struct {
	calls atomic.Int64
	limit int64
}

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}       { return nil }
func (c *countingCtx) Value(any) any               { return nil }
func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// buildCancellationGraph makes a denser, larger graph so searches run for
// hundreds of expansions — enough to cross several amortized cancellation
// checks before exhausting the frontier.
func buildCancellationGraph(t testing.TB, seed int64) (*graph.Graph, [][]graph.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 400
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("t")
	}
	for u := 0; u < n; u++ {
		for j := 0; j < 2+rng.Intn(4); j++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.5+rng.Float64()*2, graph.EdgeType(rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.1 + rng.Float64()
	}
	if err := g.SetPrestige(p); err != nil {
		t.Fatal(err)
	}
	kw := [][]graph.NodeID{
		{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))},
		{graph.NodeID(rng.Intn(n))},
		{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))},
	}
	return g, kw
}

// TestDifferentialCancellation checks that the cancellation sweep of
// TestDifferentialSerialPinned covers both regimes: a small limit
// truncates mid-search and an uncancelled run does not.
func TestDifferentialCancellation(t *testing.T) {
	for gi := 0; gi < 6; gi++ {
		g, kw := buildCancellationGraph(t, int64(9000+gi))
		for _, algo := range Algos() {
			full, err := Search(context.Background(), g, algo, kw, Options{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			cut, err := Search(&countingCtx{limit: 1}, g, algo, kw, Options{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			if !cut.Stats.Truncated {
				t.Fatalf("%s: limit-1 run was not truncated (graph too small for the harness?)", algo)
			}
			if full.Stats.Truncated {
				t.Fatalf("%s: uncancelled run reports Truncated", algo)
			}
		}
	}
}

// serialPinnedDigests are SHA-256 digests, per algorithm, of every
// diffSignature the serial harness produces: the 60 random graphs under
// each of the diffOptVariants shapes, then the countingCtx cancellation
// sweep. They were taken before the intra-query parallel paths (parallel
// MI-Backward, sharded Bidirectional forward expansion) were removed, when
// this harness still proved those paths bit-identical to serial; any edit
// to the search code that changes an answer, a float bit, a counter or a
// truncation point fails here.
var serialPinnedDigests = map[Algo]string{
	AlgoBidirectional: "cdd76ddfc57731dee8d6c0c3d1bf87756add7b3fa87f4c09fccf99194a61dc87",
	AlgoSIBackward:    "23536d77c54568438f5b387c254ffe9fc60ff80338dadc444866e974ca93f4be",
	AlgoMIBackward:    "5b4473229e6a6ba31eabdb695d8028aa3df5bdd019e6648bbd5863ac0ca35213",
}

// TestDifferentialSerialPinned pins the random-graph harness bit for bit.
func TestDifferentialSerialPinned(t *testing.T) {
	for _, algo := range Algos() {
		h := sha256.New()
		for gi := 0; gi < 60; gi++ {
			g, kw := buildRandomGraph(t, randomGraphSpec{seed: int64(1000 + gi), hub: gi%2 == 0})
			for vi, opts := range diffOptVariants() {
				res, err := Search(nil, g, algo, kw, opts)
				if err != nil {
					t.Fatalf("graph %d %s variant %d: %v", gi, algo, vi, err)
				}
				fmt.Fprintf(h, "graph %d variant %d\n%s", gi, vi, diffSignature(res))
			}
		}
		for gi := 0; gi < 6; gi++ {
			g, kw := buildCancellationGraph(t, int64(9000+gi))
			for _, limit := range diffCancelLimits {
				res, err := Search(&countingCtx{limit: limit}, g, algo, kw, Options{K: 10})
				if err != nil {
					t.Fatalf("cancel graph %d %s limit %d: %v", gi, algo, limit, err)
				}
				fmt.Fprintf(h, "cancel graph %d limit %d\n%s", gi, limit, diffSignature(res))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != serialPinnedDigests[algo] {
			t.Errorf("%s: serial signature digest %s, pinned %s", algo, got, serialPinnedDigests[algo])
		}
	}
}

// diffCancelLimits are the countingCtx limits the cancellation sweep uses.
var diffCancelLimits = []int64{0, 1, 2, 4, 8}
