//go:build !race

// The race detector instruments allocations, so the budgets below only
// hold in ordinary builds.

package banks_test

import (
	"runtime"
	"testing"

	"banks"
	"banks/internal/experiments"
)

// allocQuery is the fixed DBLP query of TestSearchAllocBudget.
const allocQuery = "database transaction"

// TestSearchAllocBudget pins the steady-state allocations of one search
// per algorithm on factor-0.1 DBLP. Per-node and per-iterator bookkeeping
// lives in dense arrays, slabs and arenas from a pooled scratch, so what
// remains is growth past what the pool keeps, the answers themselves
// (MI-Backward builds a tree per iterator combination, most of them
// discarded as duplicates), the output buffer and keyword lookup. Each
// bound is the count measured when the scratch pool was introduced, times
// 1.5. Before it, the same searches took 11554, 11090 and 93763
// allocations.
func TestSearchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the factor-0.1 DBLP dataset")
	}
	e, err := experiments.NewEnv("dblp", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	db := &banks.DB{Graph: e.Built.Graph, Index: e.Built.Index, Mapping: e.Built.Mapping, EdgeTypes: e.Built.EdgeTypes, Source: e.DS.DB}
	opts := banks.Options{K: 10, MaxNodes: 120_000}
	// The scratch pool is per P: with one P every search after the
	// warm-up run reuses the same warm scratch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	budgets := []struct {
		algo  banks.Algorithm
		limit float64
	}{
		{banks.Bidirectional, 220}, // measured 147
		{banks.SIBackward, 186},    // measured 124
		{banks.MIBackward, 10917},  // measured 7278
	}
	for _, b := range budgets {
		allocs := testing.AllocsPerRun(10, func() {
			res, err := db.Search(allocQuery, b.algo, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) == 0 {
				t.Fatal("no answers")
			}
		})
		t.Logf("%s: %.0f allocs/search", b.algo, allocs)
		if allocs > b.limit {
			t.Errorf("%s: %.0f allocs per search, budget %.0f", b.algo, allocs, b.limit)
		}
	}
}
