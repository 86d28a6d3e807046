// Single-query latency on factor-1 DBLP (~180k tuples — the scale
// BENCH_store.json uses): MI-Backward and Bidirectional on one large-origin
// query. The `factor_1` command of BENCH_core.json runs them. These
// benchmarks build the full factor-1 dataset on first use and are meant
// for explicit runs:
//
//	go test -run xxx -bench 'MIBackwardSerial$|BidirectionalShardSerial$' -benchmem -benchtime 5x .
package banks_test

import (
	"math/rand"
	"sync"
	"testing"

	"banks"
	"banks/internal/experiments"
	"banks/internal/workload"
)

// factor1Cfg mirrors the BENCH_store.json environment: factor-1
// DBLP. MaxNodes bounds MI-Backward the way every other benchmark in this
// suite does.
var factor1Cfg = experiments.Config{Factor: 1, K: 10, MaxNodes: 120_000, Seed: 42}

var (
	factor1EnvOnce sync.Once
	factor1Env     *experiments.Env
)

func factor1DB(b *testing.B) *banks.DB {
	b.Helper()
	factor1EnvOnce.Do(func() {
		e, err := experiments.NewEnv("dblp", factor1Cfg.Factor)
		if err != nil {
			panic(err)
		}
		factor1Env = e
	})
	e := factor1Env
	return &banks.DB{Graph: e.Built.Graph, Index: e.Built.Index, Mapping: e.Built.Mapping, EdgeTypes: e.Built.EdgeTypes, Source: e.DS.DB}
}

// factor1Query picks one deterministic 3-keyword large-origin query:
// large origin sets mean many MI iterators.
var (
	factor1QueryOnce sync.Once
	factor1Q         *workload.Query
)

func factor1Query(b *testing.B) *workload.Query {
	b.Helper()
	factor1DB(b)
	factor1QueryOnce.Do(func() {
		rng := rand.New(rand.NewSource(factor1Cfg.Seed))
		for tries := 0; tries < 3000; tries++ {
			if q, ok := factor1Env.Gen.SizeFive(rng, 3, workload.OriginLarge); ok {
				factor1Q = q
				return
			}
		}
		panic("could not generate a 3-keyword large-origin query")
	})
	return factor1Q
}

func benchmarkFactor1Search(b *testing.B, algo banks.Algorithm) {
	db := factor1DB(b)
	q := factor1Query(b)
	opts := banks.Options{K: factor1Cfg.K, MaxNodes: factor1Cfg.MaxNodes}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.SearchNodes(q.Keywords, algo, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) == 0 {
			b.Fatal("no answers")
		}
	}
}

// The names predate the removal of the parallel variants they were the
// baselines of; BENCH_core.json records them under these names.

func BenchmarkMIBackwardSerial(b *testing.B) { benchmarkFactor1Search(b, banks.MIBackward) }

func BenchmarkBidirectionalShardSerial(b *testing.B) {
	benchmarkFactor1Search(b, banks.Bidirectional)
}
