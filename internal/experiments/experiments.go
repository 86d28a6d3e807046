// Package experiments regenerates the tables and figures of the paper's
// evaluation section (§5) on the synthetic stand-in datasets:
//
//   - Figure 5: per-query comparison table (MI vs SI vs Bidirectional vs
//     the Sparse lower bound);
//   - Figure 6(a): MI-Backward / SI-Backward time ratio vs keyword count;
//   - Figure 6(b): SI-Backward / Bidirectional time ratio vs keyword count;
//   - Figure 6(c): join-order comparison across selectivity-band combos;
//   - §5.7: recall/precision.
//
// Measurements follow §5.2: all metrics are taken at the last relevant
// result (or the tenth when more than ten exist), where relevance is
// decided against the ground truth produced by executing the originating
// join network (§5.4).
package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"banks/internal/convert"
	"banks/internal/core"
	"banks/internal/datagen"
	"banks/internal/graph"
	"banks/internal/prestige"
	"banks/internal/relational"
	"banks/internal/store"
	"banks/internal/workload"
)

// Config tunes experiment scale. The defaults keep the full suite
// laptop-friendly; raise Factor/QueriesPerCell to approach paper scale.
type Config struct {
	// Factor scales the datasets (1 ≈ 180k tuples for DBLP; the paper's
	// DBLP would be ≈ 11).
	Factor float64
	// QueriesPerCell is the number of workload queries per figure cell
	// (the paper uses ~200 total for Figure 6(a)/(b), ~400 for 6(c)).
	QueriesPerCell int
	// K is the number of answers requested per search.
	K int
	// MaxNodes caps node expansions per search so that pathological
	// MI-Backward runs terminate in bounded time (0 = unlimited).
	MaxNodes int
	// Seed drives workload sampling.
	Seed int64
	// SnapshotDir, when set, caches each built graph+index as a snapshot
	// file in this directory: the first run of a (dataset, factor) pair
	// writes it, later runs mmap it and skip conversion, indexing and
	// prestige entirely (the relational rows are still regenerated for
	// ground-truth evaluation).
	SnapshotDir string
}

// DefaultConfig returns the bench-scale configuration.
func DefaultConfig() Config {
	return Config{Factor: 0.25, QueriesPerCell: 6, K: 20, MaxNodes: 600_000, Seed: 42}
}

// Env is a prepared dataset environment.
type Env struct {
	Name  string
	DS    *datagen.Dataset
	Built *convert.Result
	Gen   *workload.Generator
}

var envCache sync.Map // key string → *Env

// NewEnv builds (or returns the cached) environment for one dataset
// family at the given scale factor.
func NewEnv(name string, factor float64) (*Env, error) {
	return NewEnvSnapshot(name, factor, "")
}

// NewEnvSnapshot is NewEnv with an optional snapshot cache directory (see
// Config.SnapshotDir). An empty dir always builds from scratch.
func NewEnvSnapshot(name string, factor float64, snapshotDir string) (*Env, error) {
	key := fmt.Sprintf("%s|%g", name, factor)
	if v, ok := envCache.Load(key); ok {
		return v.(*Env), nil
	}
	var ds *datagen.Dataset
	var err error
	switch name {
	case "dblp":
		ds, err = datagen.DBLP(datagen.DefaultDBLP(factor))
	case "imdb":
		ds, err = datagen.IMDB(datagen.DefaultIMDB(factor))
	case "patents":
		ds, err = datagen.Patents(datagen.DefaultPatents(factor))
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	if err != nil {
		return nil, err
	}

	var snapPath string
	if snapshotDir != "" {
		snapPath = filepath.Join(snapshotDir, fmt.Sprintf("%s-f%g.snap", name, factor))
		// The snapshot stays open (never closed) because the cached Env
		// lives for the rest of the process.
		if s, err := store.Open(snapPath, store.Options{}); err == nil {
			if snapshotMatches(s, ds.DB) {
				built := &convert.Result{Graph: s.Graph, Index: s.Index, Mapping: s.Mapping, EdgeTypes: s.EdgeTypes}
				env := &Env{Name: name, DS: ds, Built: built, Gen: workload.New(ds, built)}
				envCache.Store(key, env)
				return env, nil
			}
			s.Close() // stale cache (dataset generator changed); rebuild below
		}
	}

	built, err := convert.Build(ds.DB, convert.Options{})
	if err != nil {
		return nil, err
	}
	p, err := prestige.Compute(built.Graph, prestige.Options{Tolerance: 1e-8, MaxIterations: 60})
	if err != nil {
		return nil, err
	}
	if err := built.Graph.SetPrestige(p); err != nil {
		return nil, err
	}
	if snapPath != "" {
		// Caching is best-effort: an unwritable cache dir (permissions,
		// another user's file under a sticky-bit /tmp) must not abort an
		// experiment that has already built its environment.
		if err := os.MkdirAll(snapshotDir, 0o755); err == nil {
			_, _ = store.WriteFile(snapPath, built.Graph, built.Index, built.Mapping, built.EdgeTypes)
		}
	}
	env := &Env{Name: name, DS: ds, Built: built, Gen: workload.New(ds, built)}
	envCache.Store(key, env)
	return env, nil
}

// snapshotMatches guards against serving a stale snapshot cache after the
// dataset generator changed: the snapshot's table layout (names, per-table
// base node IDs, total rows) must match what the freshly generated
// relational data would produce. Content changes that keep the exact table
// layout (e.g. reworded row text) are not detectable here — delete the
// cache dir after editing internal/datagen.
func snapshotMatches(s *store.Snapshot, db *relational.Database) bool {
	bases := s.Mapping.Export()
	names := db.TableNames()
	if len(bases) != len(names) || s.Graph.NumNodes() != db.NumRows() {
		return false
	}
	next := graph.NodeID(0)
	for i, name := range names {
		if bases[i].Table != name || bases[i].Base != next {
			return false
		}
		next += graph.NodeID(db.Table(name).NumRows())
	}
	return true
}

// Datasets lists the supported dataset families.
func Datasets() []string { return []string{"dblp", "imdb", "patents"} }

// RunMetrics are the §5.2 measurements of one search on one query.
type RunMetrics struct {
	// Found / Total: relevant answers retrieved vs. existing.
	Found, Total int
	// Time is the output time of the last relevant result (or the full
	// search duration when none was found).
	Time time.Duration
	// GenTime is the generation time of the last relevant result.
	GenTime time.Duration
	// Explored / Touched at the last relevant output.
	Explored, Touched int
	// TotalTime is the full search duration.
	TotalTime time.Duration
	// FirstIrrelevantBeforeLastRelevant counts irrelevant answers output
	// before the last relevant one (precision signal, §5.7).
	IrrelevantBefore int
}

// Measure evaluates a search result against a query's ground truth per
// §5.2: the measurement point is the last relevant result, or the tenth
// relevant one if more than ten exist.
func Measure(res *core.Result, q *workload.Query) RunMetrics {
	m := RunMetrics{Total: len(q.Relevant), TotalTime: res.Stats.Duration}
	const tenth = 10
	lastIdx := -1
	count := 0
	for i, a := range res.Answers {
		ids := make([]graph.NodeID, len(a.Nodes))
		copy(ids, a.Nodes)
		if q.Relevant[workload.CanonNodes(ids)] {
			count++
			lastIdx = i
			if count == tenth {
				break
			}
		}
	}
	m.Found = count
	if lastIdx < 0 {
		m.Time = res.Stats.Duration
		m.GenTime = res.Stats.Duration
		m.Explored = res.Stats.NodesExplored
		m.Touched = res.Stats.NodesTouched
		return m
	}
	last := res.Answers[lastIdx]
	m.Time = last.OutputAt
	m.GenTime = last.GeneratedAt
	m.Explored = last.ExploredAtOut
	m.Touched = last.TouchedAtOut
	m.IrrelevantBefore = lastIdx + 1 - count
	return m
}

// runAlgo executes one algorithm on a query with the experiment options.
func runAlgo(env *Env, q *workload.Query, algo string, cfg Config) (*core.Result, error) {
	opts := core.Options{K: cfg.K, MaxNodes: cfg.MaxNodes}
	return core.Search(nil, env.Built.Graph, core.Algo(algo), q.Keywords, opts)
}

// ratio returns a/b guarding against zero denominators.
func ratio(a, b float64) float64 {
	if b <= 0 {
		if a <= 0 {
			return 1
		}
		return a
	}
	return a / b
}

func newRng(cfg Config, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed*7919 + salt))
}
