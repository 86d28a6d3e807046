package core

import "time"

// This file is the core half of the streaming answer subsystem. The paper
// separates answer *generation* from answer *output* (§5.2): generated
// trees sit in the output heap until the §4.5 bound proves no better
// answer can still arrive, and only then are they output. Batch callers
// observe that release sequence all at once, as Result.Answers; the Emit
// seam below exposes it incrementally, one callback per release, which is
// what makes BANKS the *interactive* system the paper describes — the
// first answer reaches the user while the search is still running.
//
// The contract, enforced by the differential harness in
// search_stream_test.go: the emitted sequence is bit-identical — answers,
// scores, order — to the Result.Answers of the same search, for every
// algorithm and option shape, including truncated prefixes under
// mid-search cancellation. This holds by construction: Emit fires
// inside outputHeap.release, the single funnel every released answer
// passes through (drain, flush and releaseBuilt all end there), at the
// exact moment the answer is appended to the output slice.

// EmittedAnswer is one incremental release of the output heap, as
// delivered to Options.Emit: the answer itself (carrying its §5.2
// generation/output counters — GeneratedAt, ExploredAtGen/Out,
// TouchedAtGen/Out), its rank so far, and the emission timestamp as an
// offset from search start.
type EmittedAnswer struct {
	// Answer is the released answer. It is final at emission time: the
	// output heap never retracts or mutates a released answer. Receivers
	// must treat it as read-only — it is the same object that appears in
	// Result.Answers.
	Answer *Answer
	// Rank is the answer's 1-based position in the output sequence so
	// far; the stream of emissions has ranks 1, 2, 3, … in order.
	Rank int
	// OutputAt is when (relative to search start) the answer was
	// released, equal to Answer.OutputAt.
	OutputAt time.Duration
	// Generated is Stats.AnswersGenerated at the moment of emission — how
	// many answers the search had generated (buffered) when this one was
	// output, the gap the paper's §5.2 generation-vs-output distinction
	// measures. Replayed streams (an engine cache hit) report the
	// originating run's final value for every answer; the per-answer
	// counters on Answer are exact in both cases.
	Generated int
}

// EmittedNear is one incremental emission of a near query, delivered to
// Options.EmitNear. Near queries rank nodes by accumulated activation,
// which is only known once spreading finishes, so unlike tree search the
// emissions all occur at the end of the search — the seam exists so near
// results travel the same streaming path, not to make ranking
// incremental.
type EmittedNear struct {
	// Result is the activation-ranked node.
	Result NearResult
	// Rank is the node's 1-based position in the ranked list.
	Rank int
	// OutputAt is when (relative to search start) the node was emitted.
	OutputAt time.Duration
}
