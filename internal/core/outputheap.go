package core

import (
	"sort"
	"time"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// outputHeap buffers and reorders generated answers (§4.2.3, §4.5).
// Answers are released only when the caller-supplied bound says no better
// answer can still be generated (or at final flush). Two bound modes exist
// (§4.5):
//
//   - strict: an answer is released when its overall score is at least the
//     upper bound on any future answer's score (edge-score bound combined
//     with the maximum node prestige, NRA-style);
//   - heuristic (the paper's default, used in its experiments): an answer
//     is released once its aggregate edge score is below the best possible
//     future edge score h(m₁,…,mₖ); eligible answers are sorted by
//     relevance score before release. This ignores node prestige and may
//     release slightly out of order, which §5.7 shows is harmless in
//     practice.
//
// The heap also performs the paper's duplicate filters: rotations of an
// already-known tree (§4.6) and re-emissions for a root whose buffered
// tree improved keep only the best version.
type outputHeap struct {
	// heap orders buffered answers by release eligibility: overall score
	// (max-heap) in strict mode, edge score (min-heap) in heuristic mode.
	// It is keyed by answer index: answers[i] is the i-th answer added.
	heap      *pqueue.Heap[int32]
	answers   []*Answer
	heuristic bool

	// bySig and byRoot index the buffered answers (by answer index).
	bySig  map[uint64]int32
	byRoot map[graph.NodeID]int32
	// emittedSig / emittedRoot suppress re-emission of released trees and
	// roots (an output cannot be retracted).
	emittedSig  map[uint64]float64
	emittedRoot map[graph.NodeID]struct{}

	out   []*Answer
	k     int
	start time.Time
	stats *Stats
	// emit, when non-nil, observes every release as it happens — the
	// streaming seam (Options.Emit). release is the single funnel all
	// output paths (drain, flush, releaseBuilt) pass through, so hooking
	// it here guarantees the streamed sequence equals the batch result.
	emit func(EmittedAnswer)
}

func newOutputHeap(k int, heuristic bool, start time.Time, stats *Stats, emit func(EmittedAnswer)) *outputHeap {
	h := pqueue.NewMax[int32]()
	if heuristic {
		h = pqueue.NewMin[int32]()
	}
	return &outputHeap{
		heap:        h,
		heuristic:   heuristic,
		bySig:       make(map[uint64]int32),
		byRoot:      make(map[graph.NodeID]int32),
		emittedSig:  make(map[uint64]float64),
		emittedRoot: make(map[graph.NodeID]struct{}),
		k:           k,
		start:       start,
		stats:       stats,
		emit:        emit,
	}
}

func (o *outputHeap) key(a *Answer) float64 {
	if o.heuristic {
		return a.EdgeScore
	}
	return a.Score
}

// add inserts a generated answer, applying duplicate filtering. It reports
// whether the answer was kept.
func (o *outputHeap) add(a *Answer) bool {
	if o.k <= 0 {
		return false
	}
	if a.GeneratedAt == 0 {
		// Not pre-stamped by a deferred emitter: generated right now.
		a.GeneratedAt = time.Since(o.start)
		a.ExploredAtGen = o.stats.NodesExplored
		a.TouchedAtGen = o.stats.NodesTouched
	}
	if a.Score > o.stats.BestGeneratedScore {
		o.stats.BestGeneratedScore = a.Score
	}
	sig := a.Signature()
	if _, done := o.emittedSig[sig]; done {
		return false
	}
	if _, done := o.emittedRoot[a.Root]; done {
		return false
	}
	if prev, ok := o.bySig[sig]; ok {
		if o.answers[prev].Score >= a.Score {
			return false
		}
		o.remove(prev)
	}
	if prev, ok := o.byRoot[a.Root]; ok {
		if o.answers[prev].Score >= a.Score {
			return false
		}
		o.remove(prev)
	}
	i := int32(len(o.answers))
	o.answers = append(o.answers, a)
	o.bySig[sig] = i
	o.byRoot[a.Root] = i
	o.heap.Push(i, o.key(a))
	o.stats.AnswersGenerated++
	return true
}

// remove drops buffered answer i and returns it.
func (o *outputHeap) remove(i int32) *Answer {
	a := o.answers[i]
	o.answers[i] = nil
	o.heap.Remove(i)
	delete(o.bySig, a.Signature())
	delete(o.byRoot, a.Root)
	return a
}

// drain releases buffered answers per the active bound mode and returns
// true when k answers have been output.
//
// In strict mode scoreBound is an upper bound on any future answer's
// overall score: every buffered answer scoring at least it is safe to
// release in score order.
//
// In heuristic mode edgeBound is h(m₁,…,mₖ), the least aggregate edge
// score any future answer could have: every buffered answer with a
// smaller edge score is released, sorted by relevance score (§4.5).
func (o *outputHeap) drain(scoreBound, edgeBound float64) bool {
	if o.heuristic {
		var eligible []*Answer
		for len(o.out)+len(eligible) < o.k {
			i, edge, ok := o.heap.Peek()
			if !ok || edge >= edgeBound {
				break
			}
			eligible = append(eligible, o.remove(i))
		}
		sort.Slice(eligible, func(i, j int) bool { return eligible[i].Score > eligible[j].Score })
		for _, a := range eligible {
			o.release(a)
		}
		return len(o.out) >= o.k
	}
	for len(o.out) < o.k {
		i, score, ok := o.heap.Peek()
		if !ok || score < scoreBound {
			break
		}
		o.release(o.remove(i))
	}
	return len(o.out) >= o.k
}

// flush releases remaining buffered answers in relevance-score order (used
// when the search frontier is exhausted, at which point no future answer
// exists).
func (o *outputHeap) flush() {
	var rest []*Answer
	for {
		i, _, ok := o.heap.Peek()
		if !ok {
			break
		}
		rest = append(rest, o.remove(i))
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Score > rest[j].Score })
	for _, a := range rest {
		if len(o.out) >= o.k {
			break
		}
		o.release(a)
	}
}

func (o *outputHeap) release(a *Answer) {
	a.OutputAt = time.Since(o.start)
	a.ExploredAtOut = o.stats.NodesExplored
	a.TouchedAtOut = o.stats.NodesTouched
	o.emittedSig[a.Signature()] = a.Score
	o.emittedRoot[a.Root] = struct{}{}
	o.out = append(o.out, a)
	if a.GeneratedAt > o.stats.LastGenerated {
		o.stats.LastGenerated = a.GeneratedAt
	}
	o.stats.LastOutput = a.OutputAt
	if o.emit != nil {
		o.emit(EmittedAnswer{
			Answer:    a,
			Rank:      len(o.out),
			OutputAt:  a.OutputAt,
			Generated: o.stats.AnswersGenerated,
		})
	}
}

// released reports whether an answer rooted at u was already output.
func (o *outputHeap) released(u graph.NodeID) bool {
	_, done := o.emittedRoot[u]
	return done
}

// releaseBuilt outputs a lazily-built answer directly (candidate mode),
// applying the rotation/root duplicate filters at release time. It reports
// whether the answer was released.
func (o *outputHeap) releaseBuilt(a *Answer) bool {
	if o.k <= 0 || len(o.out) >= o.k {
		return false
	}
	if _, done := o.emittedSig[a.Signature()]; done {
		return false
	}
	if _, done := o.emittedRoot[a.Root]; done {
		return false
	}
	o.stats.AnswersGenerated++
	o.release(a)
	return true
}

// len returns the number of released answers.
func (o *outputHeap) len() int { return len(o.out) }

// results returns the answers in output order.
func (o *outputHeap) results() []*Answer { return o.out }

// full reports whether k answers have been output.
func (o *outputHeap) full() bool { return len(o.out) >= o.k }
