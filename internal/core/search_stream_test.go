package core

// Differential harness for the streaming seam: over the random-graph
// corpus of the differential harness, for every algorithm and option
// shape, the sequence delivered through Options.Emit must be
// bit-identical — answers, scores, order, per-answer counters — to the
// batch Result.Answers of the same search, including truncated prefixes
// under deterministic mid-stream cancellation.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"banks/internal/graph"
)

// collectStream runs a search with an Emit collector installed and
// returns the emissions alongside the batch result of the same run.
func collectStream(t *testing.T, ctx context.Context, g *graph.Graph, algo Algo, kw [][]graph.NodeID, opts Options) ([]EmittedAnswer, *Result) {
	t.Helper()
	var got []EmittedAnswer
	opts.Emit = func(ev EmittedAnswer) { got = append(got, ev) }
	res, err := Search(ctx, g, algo, kw, opts)
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

// checkStreamMatchesBatch asserts the emission invariants against the
// result of the same run (pointer identity, rank sequence, timestamps)
// and the bit-identity of the emitted answers against an independent
// batch run's answers.
func checkStreamMatchesBatch(t *testing.T, label string, got []EmittedAnswer, own, batch *Result) {
	t.Helper()
	if len(got) != len(own.Answers) {
		t.Fatalf("%s: %d emissions for %d answers", label, len(got), len(own.Answers))
	}
	for i, ev := range got {
		if ev.Answer != own.Answers[i] {
			t.Fatalf("%s: emission %d is not the result answer (same run, same object)", label, i)
		}
		if ev.Rank != i+1 {
			t.Fatalf("%s: emission %d has rank %d", label, i, ev.Rank)
		}
		if ev.OutputAt != ev.Answer.OutputAt {
			t.Fatalf("%s: emission %d OutputAt %v != answer OutputAt %v", label, i, ev.OutputAt, ev.Answer.OutputAt)
		}
		if ev.Generated <= 0 || ev.Generated > own.Stats.AnswersGenerated {
			t.Fatalf("%s: emission %d Generated=%d outside (0, %d]", label, i, ev.Generated, own.Stats.AnswersGenerated)
		}
	}
	// Bit-identity against the independent batch run: the full diff
	// signature covers answers, float bits and deterministic counters.
	streamed := &Result{Answers: make([]*Answer, len(got)), Stats: own.Stats}
	for i, ev := range got {
		streamed.Answers[i] = ev.Answer
	}
	if want, have := diffSignature(batch), diffSignature(streamed); want != have {
		t.Fatalf("%s: streamed sequence diverged from batch:\n--- batch ---\n%s--- streamed ---\n%s", label, want, have)
	}
}

// TestStreamMatchesBatch is the acceptance property of the streaming
// subsystem: for every graph/algorithm/option case, the collected
// stream equals the batch answers bit-for-bit.
func TestStreamMatchesBatch(t *testing.T) {
	numGraphs := 30
	if testing.Short() {
		numGraphs = 8
	}
	for gi := 0; gi < numGraphs; gi++ {
		g, kw := buildRandomGraph(t, randomGraphSpec{seed: int64(5000 + gi), hub: gi%2 == 0})
		for _, algo := range Algos() {
			for vi, opts := range diffOptVariants() {
				batch, err := Search(nil, g, algo, kw, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, own := collectStream(t, nil, g, algo, kw, opts)
				checkStreamMatchesBatch(t,
					fmt.Sprintf("graph %d %s variant %d", gi, algo, vi),
					got, own, batch)
			}
		}
	}
}

// TestStreamCancellationPrefix proves the truncated-prefix contract: with
// a deterministic cancellation point, the streamed sequence equals the
// truncated batch result of an identically-cancelled run — the stream is
// exactly the answers a batch caller would have received, delivered
// early.
func TestStreamCancellationPrefix(t *testing.T) {
	for gi := 0; gi < 4; gi++ {
		g, kw := buildCancellationGraph(t, int64(11000+gi))
		for _, algo := range Algos() {
			truncatedOnce := false
			for _, limit := range []int64{1, 2, 4} {
				batch, err := Search(&countingCtx{limit: limit}, g, algo, kw, Options{K: 10})
				if err != nil {
					t.Fatal(err)
				}
				got, own := collectStream(t, &countingCtx{limit: limit}, g, algo, kw, Options{K: 10})
				if own.Stats.Truncated != batch.Stats.Truncated {
					t.Fatalf("%s limit %d: Truncated=%v, batch %v",
						algo, limit, own.Stats.Truncated, batch.Stats.Truncated)
				}
				checkStreamMatchesBatch(t,
					fmt.Sprintf("graph %d %s limit %d (cancelled)", gi, algo, limit),
					got, own, batch)
				truncatedOnce = truncatedOnce || batch.Stats.Truncated
			}
			// Sanity: the sweep must actually cover the truncated regime.
			if !truncatedOnce {
				t.Fatalf("graph %d %s: no limit in the sweep truncated the search", gi, algo)
			}
		}
	}
}

// TestStreamEmissionTimestampsOrdered pins the §5.2 semantics of the
// seam: emission offsets never decrease along the stream, every answer's
// generation precedes its output, and all offsets lie inside the search
// duration.
func TestStreamEmissionTimestampsOrdered(t *testing.T) {
	g, kw := buildRandomGraph(t, randomGraphSpec{seed: 4242})
	for _, algo := range Algos() {
		got, own := collectStream(t, nil, g, algo, kw, Options{K: 8})
		if len(got) == 0 {
			t.Fatalf("%s: no emissions", algo)
		}
		var prev time.Duration
		for i, ev := range got {
			if ev.OutputAt < prev {
				t.Fatalf("%s: emission %d OutputAt %v before previous %v", algo, i, ev.OutputAt, prev)
			}
			prev = ev.OutputAt
			if ev.Answer.GeneratedAt > ev.OutputAt {
				t.Fatalf("%s: emission %d generated at %v after output at %v", algo, i, ev.Answer.GeneratedAt, ev.OutputAt)
			}
			if ev.OutputAt > own.Stats.Duration {
				t.Fatalf("%s: emission %d output at %v beyond duration %v", algo, i, ev.OutputAt, own.Stats.Duration)
			}
		}
	}
}

// TestNearEmitMatchesResult pins the Near seam: the emitted sequence is
// exactly the returned ranked slice.
func TestNearEmitMatchesResult(t *testing.T) {
	for gi := 0; gi < 6; gi++ {
		g, kw := buildRandomGraph(t, randomGraphSpec{seed: int64(13000 + gi)})
		var got []EmittedNear
		opts := Options{K: 8, EmitNear: func(ev EmittedNear) { got = append(got, ev) }}
		res, stats, err := Near(nil, g, kw, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(res) {
			t.Fatalf("graph %d: %d emissions for %d results", gi, len(got), len(res))
		}
		for i, ev := range got {
			if ev.Result != res[i] {
				t.Fatalf("graph %d: emission %d = %+v, result %+v", gi, i, ev.Result, res[i])
			}
			if ev.Rank != i+1 {
				t.Fatalf("graph %d: emission %d has rank %d", gi, i, ev.Rank)
			}
			if ev.OutputAt > stats.Duration {
				t.Fatalf("graph %d: emission %d at %v beyond duration %v", gi, i, ev.OutputAt, stats.Duration)
			}
		}
	}
}
