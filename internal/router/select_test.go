package router

import (
	"testing"
	"time"
)

// mkGroup builds a shard group of n replicas with default (zero) state.
func mkGroup(n int) *shardGroup {
	g := &shardGroup{index: 0}
	for j := 0; j < n; j++ {
		g.replicas = append(g.replicas, &replicaState{shard: 0, replica: j, healthy: true})
	}
	return g
}

func order(reps []*replicaState) []int {
	out := make([]int, len(reps))
	for i, r := range reps {
		out[i] = r.replica
	}
	return out
}

func TestCandidatesTieKeepsIndexOrder(t *testing.T) {
	// Fresh replicas: no samples, no load — scores tie at the floor, and
	// the stable sort must preserve index order so single-replica and
	// pre-replica deployments behave identically to before.
	g := mkGroup(3)
	got := order(g.candidates())
	for i, idx := range got {
		if idx != i {
			t.Fatalf("tied candidates reordered: %v", got)
		}
	}
}

func TestCandidatesPreferLowerLatency(t *testing.T) {
	g := mkGroup(2)
	g.replicas[0].observeLatency(50 * time.Millisecond)
	g.replicas[1].observeLatency(5 * time.Millisecond)
	if got := order(g.candidates()); got[0] != 1 {
		t.Fatalf("slow replica selected first: %v", got)
	}
}

func TestCandidatesInflightSpreadsLoad(t *testing.T) {
	// Same latency, but replica 0 already carries two attempts: the
	// (inflight+1) factor must route the next query to replica 1.
	g := mkGroup(2)
	g.replicas[0].observeLatency(5 * time.Millisecond)
	g.replicas[1].observeLatency(5 * time.Millisecond)
	g.replicas[0].inflight.Add(2)
	if got := order(g.candidates()); got[0] != 1 {
		t.Fatalf("loaded replica selected first: %v", got)
	}
}

func TestCandidatesEwmaFloorKeepsFreshReplicasViable(t *testing.T) {
	// An untried replica (EWMA 0) scores at the 1ms floor: it beats a
	// replica measured slower than the floor, but not one measured
	// faster — fresh capacity is attractive, not irresistible.
	g := mkGroup(2)
	g.replicas[0].observeLatency(20 * time.Millisecond)
	if got := order(g.candidates()); got[0] != 1 {
		t.Fatalf("fresh replica not preferred over a 20ms one: %v", got)
	}
	g2 := mkGroup(2)
	g2.replicas[0].observeLatency(100 * time.Microsecond) // below the floor
	if got := order(g2.candidates()); got[0] != 0 {
		t.Fatalf("sub-floor replica not preferred over a fresh one: %v", got)
	}
}

func TestCandidatesUnhealthyLast(t *testing.T) {
	// The fastest replica in the group is down: it must sort after every
	// healthy one (last resort), regardless of score.
	g := mkGroup(3)
	g.replicas[0].observeLatency(time.Millisecond)
	g.replicas[0].setHealth(false, "probe failed", time.Now())
	g.replicas[1].observeLatency(30 * time.Millisecond)
	g.replicas[2].observeLatency(10 * time.Millisecond)
	got := order(g.candidates())
	if want := []int{2, 1, 0}; got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
}

func TestEwmaConverges(t *testing.T) {
	rep := &replicaState{}
	rep.observeLatency(10 * time.Millisecond)
	if got := rep.ewmaNS; got != 1e7 {
		t.Fatalf("first sample must seed the EWMA exactly: %g", got)
	}
	for i := 0; i < 50; i++ {
		rep.observeLatency(20 * time.Millisecond)
	}
	if got := rep.ewmaNS; got < 1.9e7 || got > 2.0e7 {
		t.Fatalf("EWMA did not converge toward the new level: %g", got)
	}
}

// trailerFor builds one shard's result with the given trailer fields.
func trailerFor(shard, retried int, mod func(*shardLine)) *shardResult {
	tr := &shardLine{
		Type:    "trailer",
		QueryID: "q-123",
		Algo:    "bidirectional",
		K:       10,
	}
	if mod != nil {
		mod(tr)
	}
	return &shardResult{shard: shard, retried: retried, trailer: tr}
}

func TestAggregateCachedANDSemantics(t *testing.T) {
	// cached only when EVERY shard answered from cache: one cold shard
	// (say, a failover to a cold replica) flips the aggregate to false.
	allWarm := aggregate([]*shardResult{
		trailerFor(0, 0, func(tr *shardLine) { tr.Cached = true }),
		trailerFor(1, 0, func(tr *shardLine) { tr.Cached = true }),
	})
	if !allWarm.cached {
		t.Error("all shards cached but aggregate cached=false")
	}
	oneCold := aggregate([]*shardResult{
		trailerFor(0, 0, func(tr *shardLine) { tr.Cached = true }),
		trailerFor(1, 1, func(tr *shardLine) { tr.Cached = false }),
	})
	if oneCold.cached {
		t.Error("one cold shard but aggregate cached=true")
	}
}

func TestAggregateFailoversSum(t *testing.T) {
	agg := aggregate([]*shardResult{
		trailerFor(0, 0, nil),
		trailerFor(1, 2, nil), // two extra attempts before an answer
		trailerFor(2, 1, nil),
	})
	if agg.failovers != 3 {
		t.Errorf("failovers = %d, want 3 (sum of extra attempts)", agg.failovers)
	}
}

func TestAggregateCountersAndStickyFlags(t *testing.T) {
	agg := aggregate([]*shardResult{
		trailerFor(0, 0, func(tr *shardLine) {
			tr.Stats = statsJSON{NodesExplored: 10, NodesTouched: 20, EdgesRelaxed: 30,
				AnswersGenerated: 2, DurationMS: 1.5}
		}),
		trailerFor(1, 0, func(tr *shardLine) {
			tr.Truncated = true
			tr.Degraded = true
			tr.Stats = statsJSON{NodesExplored: 1, NodesTouched: 2, EdgesRelaxed: 3,
				AnswersGenerated: 1, DurationMS: 0.5, BudgetExhausted: true}
		}),
	})
	if agg.stats.NodesExplored != 11 || agg.stats.NodesTouched != 22 || agg.stats.EdgesRelaxed != 33 || agg.stats.AnswersGenerated != 3 {
		t.Errorf("work counters did not sum: %+v", agg.stats)
	}
	if agg.stats.DurationMS != 1.5 {
		t.Errorf("duration_ms = %g, want slowest shard 1.5", agg.stats.DurationMS)
	}
	if !agg.truncated || !agg.degraded || !agg.stats.BudgetExhausted {
		t.Errorf("sticky OR flags lost: truncated=%v degraded=%v budget=%v",
			agg.truncated, agg.degraded, agg.stats.BudgetExhausted)
	}
	if agg.queryID != "q-123" || agg.algo != "bidirectional" || agg.k != 10 {
		t.Errorf("identity fields not taken from shard 0: %+v", agg)
	}
}
