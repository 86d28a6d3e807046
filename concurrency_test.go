// Concurrency tests: proof of the "DB is immutable after Build and safe
// for concurrent readers" contract. The hammer test runs every algorithm
// (plus near queries) from many goroutines against one shared DB under the
// race detector and asserts bit-identical results to a serial run.
package banks_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"banks"
	"banks/internal/datagen"
)

// sharedDB lazily builds one mid-size deterministic DBLP database shared by
// the concurrency and cancellation tests.
var (
	sharedOnce sync.Once
	sharedDB   *banks.DB
	sharedErr  error
)

func testDB(t testing.TB) *banks.DB {
	t.Helper()
	sharedOnce.Do(func() {
		ds, err := datagen.DBLP(datagen.DefaultDBLP(0.05))
		if err != nil {
			sharedErr = err
			return
		}
		sharedDB, sharedErr = banks.Build(ds.DB, banks.BuildOptions{})
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedDB
}

// resultSignature renders everything deterministic about a search result:
// per answer the root, the exact score, and the sorted node set, plus the
// deterministic counters. Wall-clock fields are excluded.
func resultSignature(res *banks.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "answers=%d explored=%d touched=%d relaxed=%d generated=%d truncated=%v\n",
		len(res.Answers), res.Stats.NodesExplored, res.Stats.NodesTouched,
		res.Stats.EdgesRelaxed, res.Stats.AnswersGenerated, res.Stats.Truncated)
	for i, a := range res.Answers {
		nodes := make([]int, len(a.Nodes))
		for j, u := range a.Nodes {
			nodes[j] = int(u)
		}
		sort.Ints(nodes)
		fmt.Fprintf(&sb, "%d: root=%d score=%.12g edge=%.12g nodes=%v\n",
			i, a.Root, a.Score, a.EdgeScore, nodes)
	}
	return sb.String()
}

func nearSignature(res []banks.NearResult) string {
	var sb strings.Builder
	for i, r := range res {
		fmt.Fprintf(&sb, "%d: node=%d act=%.12g\n", i, r.Node, r.Activation)
	}
	return sb.String()
}

// hammerWork is one query in the mixed workload: a free-text query plus the
// algorithm ("near" selects a near query).
type hammerWork struct {
	query string
	algo  banks.Algorithm
	near  bool
}

// hammerWorkload builds a deterministic mixed workload over terms known to
// exist in the generated dataset (vocabulary words plus relation names),
// cycling through all three algorithms and near queries.
func hammerWorkload(t testing.TB, db *banks.DB) []hammerWork {
	t.Helper()
	queries := []string{
		"database transaction",
		"index spatial",
		"concurrency recovery",
		"graph mining author",
		"storage optimization",
		"paper query",
		"relational join",
		"conference parallel",
	}
	algos := banks.Algorithms()
	var work []hammerWork
	for i, q := range queries {
		// Skip queries whose terms vanish at this dataset scale.
		usable := true
		for _, term := range banks.Keywords(q) {
			if len(db.KeywordNodes(term)) == 0 {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		work = append(work, hammerWork{query: q, algo: algos[i%len(algos)]})
		work = append(work, hammerWork{query: q, near: true})
	}
	if len(work) < 8 {
		t.Fatalf("only %d usable hammer queries", len(work))
	}
	return work
}

// runHammerWork executes one workload item and returns its deterministic
// signature.
func runHammerWork(t testing.TB, db *banks.DB, w hammerWork) string {
	t.Helper()
	opts := banks.Options{K: 5, MaxNodes: 2000}
	if w.near {
		res, stats, err := db.Near(w.query, opts)
		if err != nil {
			t.Errorf("near %q: %v", w.query, err)
			return ""
		}
		_ = stats
		return nearSignature(res)
	}
	res, err := db.Search(w.query, w.algo, opts)
	if err != nil {
		t.Errorf("%s %q: %v", w.algo, w.query, err)
		return ""
	}
	return resultSignature(res)
}

// TestConcurrentSearchHammer is the concurrent-readers proof: 8 goroutines
// each run 52 mixed queries (all three tree algorithms plus near queries)
// against one shared DB and every result must be identical to the serial
// baseline. Run under -race this also proves the absence of any lazy
// mutation in graph, index or prestige state.
func TestConcurrentSearchHammer(t *testing.T) {
	db := testDB(t)
	work := hammerWorkload(t, db)

	// Serial baseline, and a serial re-run to prove the engine itself is
	// deterministic before blaming concurrency for any mismatch.
	baseline := make([]string, len(work))
	for i, w := range work {
		baseline[i] = runHammerWork(t, db, w)
	}
	for i, w := range work {
		if again := runHammerWork(t, db, w); again != baseline[i] {
			t.Fatalf("serial run not deterministic for %+v:\n--- first ---\n%s--- second ---\n%s", w, baseline[i], again)
		}
	}

	const goroutines = 8
	const perGoroutine = 52
	var wg sync.WaitGroup
	mismatch := make(chan string, goroutines)
	for gid := 0; gid < goroutines; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			for it := 0; it < perGoroutine; it++ {
				i := (gid + it) % len(work)
				if got := runHammerWork(t, db, work[i]); got != baseline[i] {
					select {
					case mismatch <- fmt.Sprintf("goroutine %d work %+v:\n--- serial ---\n%s--- concurrent ---\n%s",
						gid, work[i], baseline[i], got):
					default:
					}
					return
				}
			}
		}(gid)
	}
	wg.Wait()
	close(mismatch)
	if msg, ok := <-mismatch; ok {
		t.Fatalf("concurrent result diverged from serial baseline:\n%s", msg)
	}
}

// TestConcurrentEngineBatch exercises the same contract through the engine:
// one batch of mixed queries fanned out across workers must match the
// serial per-query results.
func TestConcurrentEngineBatch(t *testing.T) {
	db := testDB(t)
	work := hammerWorkload(t, db)

	var batch []banks.BatchQuery
	var serial []string
	opts := banks.Options{K: 5, MaxNodes: 2000}
	for _, w := range work {
		if w.near {
			continue
		}
		res, err := db.Search(w.query, w.algo, opts)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, resultSignature(res))
		batch = append(batch, banks.BatchQuery{Query: w.query, Algo: w.algo, Opts: opts})
	}

	eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: 8, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	results, errs := eng.SearchBatch(nil, batch)
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("batch query %d: %v", i, errs[i])
		}
		if got := resultSignature(results[i]); got != serial[i] {
			t.Fatalf("batch query %d diverged:\n--- serial ---\n%s--- batch ---\n%s", i, serial[i], got)
		}
	}
}
