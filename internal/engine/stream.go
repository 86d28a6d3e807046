package engine

import (
	"context"
	"errors"
	"fmt"

	"banks/internal/core"
	"banks/internal/graph"
)

// DefaultStreamBuffer is the answer-channel capacity used when
// StreamOptions.Buffer is zero. A handful of answers of headroom absorbs
// consumer jitter (one slow write does not stall generation) while
// keeping the channel small enough that backpressure still reaches the
// search quickly when the consumer genuinely cannot keep up.
const DefaultStreamBuffer = 16

// StreamOptions configures one SearchStream call.
type StreamOptions struct {
	// Buffer is the answer-channel capacity: 0 selects
	// DefaultStreamBuffer, negative means unbuffered (every emission
	// waits for the consumer — useful in tests that need deterministic
	// backpressure).
	Buffer int
	// DropToBatch selects the backpressure policy for a consumer slower
	// than answer generation. False (the default) blocks generation: the
	// search stalls inside the emission until the consumer takes the
	// answer — strict incrementality, at the cost of holding the query's
	// pool slot while the consumer dawdles. True degrades to batch
	// delivery instead: the first emission that would block stops live
	// streaming, the search runs to completion unthrottled, and the
	// remaining answers are delivered in order afterwards (the trailer
	// reports Degraded). Content and order are identical either way.
	DropToBatch bool
}

// StreamTrailer summarizes a finished stream — the final NDJSON line of
// the HTTP transport carries exactly this.
type StreamTrailer struct {
	// Stats are the search's §5.2 counters (for a cache replay, the
	// originating run's).
	Stats core.Stats
	// Truncated reports that the delivered sequence is a valid prefix,
	// not the complete top-k: the search was cut by its deadline
	// (Stats.Truncated) or delivery was cut by the stream context ending
	// mid-stream.
	Truncated bool
	// Cached reports the stream was replayed from the engine result cache
	// rather than generated live.
	Cached bool
	// Answers is how many answers were actually delivered on the channel.
	Answers int
	// Degraded reports that live per-answer delivery was abandoned
	// (DropToBatch tripped, or the context ended during a send — live or
	// replayed); answers after that point were delivered after the
	// search, if at all.
	Degraded bool
}

// Stream is one in-progress streaming search. The consumer ranges over
// Answers until the channel closes, then reads the Trailer. Abandoning a
// stream requires cancelling the context passed to SearchStream —
// walking away without draining blocks the producer (blocking
// backpressure is the default policy) and leaks its goroutine until the
// context ends.
type Stream struct {
	ch      chan core.EmittedAnswer
	done    chan struct{}
	trailer StreamTrailer
	err     error
	// memo is the cache entry's memo when the stream replays a cache hit.
	memo *Memo
}

// Memo returns the result-cache entry's memo when the stream replays a
// cache hit, under the same rules as Engine.SearchMemo; nil otherwise.
// Answer i of the replay (Rank i+1) is answer i of the memoized result.
func (s *Stream) Memo() *Memo { return s.memo }

// Answers is the ordered answer channel. It is closed when the search
// ends — normally, by deadline, or by error.
func (s *Stream) Answers() <-chan core.EmittedAnswer { return s.ch }

// Trailer blocks until the stream has ended (Answers is closed) and
// returns its summary. A non-nil error means the search failed after
// launch; SearchStream validates everything it can synchronously, so
// this is defensive, not expected.
func (s *Stream) Trailer() (StreamTrailer, error) {
	<-s.done
	return s.trailer, s.err
}

// finish publishes the trailer and closes the stream. Order matters: the
// trailer must be in place before the channel closes, because consumers
// call Trailer the moment the range loop ends.
func (s *Stream) finish(tr StreamTrailer, err error) {
	s.trailer, s.err = tr, err
	close(s.ch)
	close(s.done)
}

// SearchStream runs one query with incremental answer delivery: answers
// appear on the returned Stream the moment the core output heap releases
// them (the paper's §5.2 output event), rather than all at once when the
// search finishes. The streamed sequence is bit-identical in content and
// order to what Search would return for the same query — streaming
// changes when the caller hears about answers, never which answers.
//
// Invalid queries (no keywords, unknown algorithm, bad options) fail
// synchronously with the same typed errors as Search, before the stream
// exists. Like Search, the call blocks while all pool workers are busy;
// the pool slot is held for the duration of the search — under blocking
// backpressure that includes time spent waiting on a slow consumer,
// which is why serving layers put per-tenant quotas in front of streams.
//
// A cache hit replays the cached result as a stream (trailer.Cached):
// per-answer OutputAt offsets are the originating run's. A live search
// that completes untruncated populates the cache exactly as Search does.
// On deadline expiry mid-stream the stream ends cleanly: the answers
// delivered are a valid partial top-k prefix and the trailer carries
// Truncated plus the search's stats.
//
// q.Opts.Emit is the seam this API is built on: SearchStream owns it and
// replaces any caller-supplied callback (callers that want raw emissions
// use Search with Opts.Emit directly, forgoing the cache).
func (e *Engine) SearchStream(ctx context.Context, q Query, so StreamOptions) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	terms := normalizeTerms(q.Terms)
	if len(terms) == 0 {
		return nil, errors.New("engine: query contains no keywords")
	}
	if len(terms) > core.MaxKeywords {
		return nil, fmt.Errorf("engine: %d keywords exceeds maximum %d", len(terms), core.MaxKeywords)
	}
	if !knownAlgo(q.Algo) {
		return nil, fmt.Errorf("engine: unknown algorithm %q", q.Algo)
	}
	if err := q.Opts.Validate(); err != nil {
		return nil, err
	}
	e.searches.Add(1)

	buf := so.Buffer
	switch {
	case buf == 0:
		buf = DefaultStreamBuffer
	case buf < 0:
		buf = 0
	}
	st := &Stream{ch: make(chan core.EmittedAnswer, buf), done: make(chan struct{})}

	// Pre-slot cache probe against the current source; same generation +
	// delta-version keying discipline as Search.
	src := e.src.Load()
	key, cacheable := cacheKey{}, false
	if e.cache != nil {
		if key, cacheable = newCacheKey(src, terms, q.Algo, q.Opts); cacheable {
			if ent, ok := e.cache.get(key); ok {
				e.hits.Add(1)
				st.memo = &ent.memo
				go st.replay(ctx, ent.res)
				return st, nil
			}
		}
	}

	// Same deadline discipline as Search: the engine default covers queue
	// time too, so a saturated pool cannot hold stream callers forever.
	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if e.timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, e.timeout)
	}
	// Single flight, as in Search: a stream that joins an identical search
	// replays its result once complete, like a cache hit.
	var lead *flight
	if cacheable {
		res, memo, f, err := e.join(runCtx, key)
		if err != nil {
			cancel()
			e.errored.Add(1)
			return nil, err
		}
		if res != nil {
			cancel()
			st.memo = memo
			go st.replay(ctx, res)
			return st, nil
		}
		lead = f
	}
	select {
	case e.sem <- struct{}{}:
	case <-runCtx.Done():
		err := runCtx.Err()
		cancel()
		if lead != nil {
			e.land(lead, key, nil)
		}
		e.errored.Add(1)
		return nil, err
	}

	// Re-resolve the source under the slot, as Search does: the slot is
	// what Swap + Quiesce synchronizes on.
	if cur := e.src.Load(); cur != src {
		src = cur
		if cacheable {
			key, cacheable = newCacheKey(src, terms, q.Algo, q.Opts)
		}
	}

	kw := make([][]graph.NodeID, len(terms))
	for i, t := range terms {
		kw[i] = src.lookup(t)
	}

	go e.runStream(runCtx, cancel, st, src, q, kw, so, key, lead)
	return st, nil
}

// knownAlgo reports whether the algorithm is one core.Search dispatches
// on — checked up front so SearchStream fails synchronously.
func knownAlgo(a core.Algo) bool {
	for _, algo := range core.Algos() {
		if a == algo {
			return true
		}
	}
	return false
}

// runStream executes the search on its own goroutine, feeding the stream
// through the core Emit seam. lead is the stream's flight (nil when the
// query is not cacheable), landed as soon as the search ends.
func (e *Engine) runStream(ctx context.Context, cancel context.CancelFunc, st *Stream,
	src *Source, q Query, kw [][]graph.NodeID, so StreamOptions, key cacheKey, lead *flight) {
	defer cancel()

	// sent and degraded are touched only by the Emit callback and the
	// post-search tail below, both on this goroutine.
	sent, degraded := 0, false
	opts := q.Opts
	opts.Emit = func(ev core.EmittedAnswer) {
		if degraded {
			return
		}
		if so.DropToBatch {
			select {
			case st.ch <- ev:
				sent++
			default:
				degraded = true
			}
			return
		}
		select {
		case st.ch <- ev:
			sent++
		case <-ctx.Done():
			// The deadline (or the caller) ended the stream while the
			// consumer was not taking answers; stop live delivery. The
			// search itself notices the same context at its next
			// cancellation check and truncates.
			degraded = true
		}
	}

	res, err := core.Search(ctx, src.graph, q.Algo, kw, opts)

	// The search is over: return the pool slot before tail delivery,
	// which runs at the consumer's pace and must not hold pool capacity.
	<-e.sem
	// Land the flight before tail delivery too, so waiters do not wait on
	// this consumer. The cache policy matches Search: complete results
	// only. A delivery cut does not poison the result — the search itself
	// was complete.
	if lead != nil {
		var landed *core.Result
		if err == nil && !res.Stats.Truncated {
			landed = res
		}
		e.land(lead, key, landed)
	}

	if err != nil {
		// Unreachable in practice — SearchStream validated the query —
		// but a defensive error still closes the stream properly. The
		// trailer stays honest about what was already delivered: the
		// streamed prefix is real, just not the complete top-k.
		e.errored.Add(1)
		st.finish(StreamTrailer{Answers: sent, Truncated: true}, err)
		return
	}

	// Deliver whatever was not streamed live (the degraded tail; empty on
	// the happy path). Answers are in output order, and the live-sent
	// prefix is exactly res.Answers[:sent], so delivery stays in order
	// and gap-free.
	delivered, deliveryCut := deliver(ctx, st.ch, res.Answers, sent, res.Stats.AnswersGenerated)
	sent += delivered

	if res.Stats.Truncated {
		e.truncated.Add(1)
	}
	st.finish(StreamTrailer{
		Stats:     res.Stats,
		Truncated: res.Stats.Truncated || deliveryCut,
		Answers:   sent,
		Degraded:  degraded,
	}, nil)
}

// deliver sends answers[from:] on ch in order — Rank and OutputAt come
// from the answers themselves, gen stamps Generated for these non-live
// events — stopping early when ctx ends. It reports how many were sent
// and whether the context cut delivery short. Both non-live delivery
// paths (runStream's tail, replay) share it so their semantics cannot
// drift.
func deliver(ctx context.Context, ch chan<- core.EmittedAnswer, answers []*core.Answer, from, gen int) (sent int, cut bool) {
	for i := from; i < len(answers); i++ {
		a := answers[i]
		select {
		case ch <- core.EmittedAnswer{Answer: a, Rank: i + 1, OutputAt: a.OutputAt, Generated: gen}:
			sent++
		case <-ctx.Done():
			return sent, true
		}
	}
	return sent, false
}

// replay feeds a cached result through the stream interface: same
// channel discipline, same trailer, Cached set. OutputAt offsets are the
// originating run's — a replay is a recording, not a re-search.
func (st *Stream) replay(ctx context.Context, res *core.Result) {
	sent, cut := deliver(ctx, st.ch, res.Answers, 0, res.Stats.AnswersGenerated)
	st.finish(StreamTrailer{
		Stats:     res.Stats,
		Truncated: res.Stats.Truncated || cut,
		Cached:    true,
		Degraded:  cut,
		Answers:   sent,
	}, nil)
}
