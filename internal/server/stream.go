package server

import (
	"net/http"
	"time"

	"banks"
	"banks/internal/api"
)

// The /v1/search/stream endpoint: the same query surface as /v1/search,
// answered incrementally as NDJSON (application/x-ndjson) — one answer
// object per line the moment the search outputs it, then exactly one
// trailer line carrying the stats. The first byte of the first answer
// reaches the client while the search is still running, which is the
// paper's interactivity contract (§5.2 separates answer generation from
// answer output precisely so the system can emit early). See
// docs/STREAMING.md for the wire format.

// streamTrailerLine is the final NDJSON line of every stream.
type streamTrailerLine struct {
	Type    string   `json:"type"` // always "trailer"
	QueryID string   `json:"query_id"`
	Algo    string   `json:"algo"`
	K       int      `json:"k"`
	Clamped []string `json:"clamped,omitempty"`
	// Truncated reports the stream is a valid prefix, not the complete
	// top-k: the deadline cut the search (or delivery) short.
	Truncated bool `json:"truncated"`
	// Cached marks a stream replayed from the engine result cache.
	Cached bool `json:"cached,omitempty"`
	// Degraded marks a stream whose live per-answer delivery was
	// abandoned (drop-to-batch backpressure); content is unaffected.
	Degraded bool `json:"degraded,omitempty"`
	// Answers is the number of answer lines that preceded this trailer.
	Answers int `json:"answers"`
	// FirstAnswerMS is the first answer's output offset in milliseconds
	// from search start (the §5.2 first-output time); absent when the
	// stream emitted nothing. Always at most stats.duration_ms: the
	// first answer was emitted before the search completed.
	FirstAnswerMS *float64 `json:"first_answer_ms,omitempty"`
	// Error carries a post-launch search failure. The HTTP status is
	// already 200 by the time a stream fails, so in-band is the only
	// channel left; request validation errors still use plain HTTP
	// status codes, never this field.
	Error string    `json:"error,omitempty"`
	Stats statsJSON `json:"stats"`
}

// decodeStreamRequest decodes and tenant-resolves one /v1/search/stream
// query. The stream endpoint accepts exactly the /v1/search parameter
// surface — same strict decoding, same tenant clamps — so asking for a
// stream can never smuggle k or a deadline past the tenant caps. It is a separate seam (and fuzz target: FuzzDecodeStreamRequest)
// so the stream surface can diverge later without loosening /v1/search.
func decodeStreamRequest(r *http.Request, lim TenantLimits) (*searchRequest, *httpError) {
	return decodeSearchRequest(r, lim)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Server) handleSearchStream(w http.ResponseWriter, r *http.Request) {
	req, herr := decodeStreamRequest(r, s.limits(r))
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	ctx, cancel := queryCtx(r, req.Timeout)
	defer cancel()
	var st *banks.Stream
	err := req.optionsError()
	if err == nil {
		st, err = s.eng.SearchStream(ctx, req.Query, req.Algo, req.Opts,
			banks.StreamOptions{DropToBatch: s.streamDropToBatch})
	}
	if err != nil {
		s.met.observeQuery(string(req.Algo), outcomeError, 0)
		annotate(r, req.queryID(), 0, false)
		s.writeError(w, mapQueryError(err))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// A live stream writes and flushes each line the moment its answer is
	// output — the flush is what makes the answer reach the client now
	// instead of whenever the buffer fills. A stream that replays a
	// cached result (st.Memo() non-nil) is a recording with nothing to
	// wait for: its lines are gathered and go out in one write and one
	// flush at the trailer. A write error means the client went away:
	// cancel the query so the search stops generating, but keep draining
	// the stream (the producer needs a reader until it notices the
	// cancellation).
	memo := st.Memo()
	memoized := memo.Answers()
	var encoded [][]byte // a replay's fresh encodings, for the memo
	buf := api.GetBody()
	defer api.PutBody(buf)
	line, scratch := *buf, []byte(nil)
	defer func() { *buf = line }()
	clientGone := false
	flush := func() {
		if !clientGone && len(line) > 0 {
			if _, err := w.Write(line); err != nil {
				clientGone = true
				cancel()
			} else {
				_ = rc.Flush()
			}
		}
		line = line[:0]
	}

	start := time.Now()
	answers := 0
	var firstWall time.Duration // request-relative, for metrics/logs
	var firstOut float64        // search-relative, for the trailer
	for ev := range st.Answers() {
		answers++
		if answers == 1 {
			firstWall = time.Since(start)
			firstOut = ms(ev.OutputAt)
		}
		if clientGone {
			continue
		}
		var answer []byte
		var err error
		switch {
		case memo == nil: // live: encode into the reused scratch
			scratch, err = api.AppendJSON(scratch[:0], s.answerJSON(ev.Answer))
			answer = scratch
		case ev.Rank-1 < len(memoized):
			answer = memoized[ev.Rank-1]
		default: // the entry's first hit: encode, and keep for the memo
			answer, err = api.AppendJSON(nil, s.answerJSON(ev.Answer))
			encoded = append(encoded, answer)
		}
		if err != nil {
			clientGone = true
			cancel()
			continue
		}
		line = api.AppendAnswerLine(line, ev.Rank, ms(ev.Answer.GeneratedAt), ms(ev.OutputAt), answer)
		if memo == nil {
			flush()
		}
	}
	tr, terr := st.Trailer()

	qid := req.queryID()
	trailer := streamTrailerLine{
		Type:      "trailer",
		QueryID:   qid,
		Algo:      string(req.Algo),
		K:         req.Opts.Normalized().K,
		Clamped:   req.Clamped,
		Truncated: tr.Truncated,
		Cached:    tr.Cached,
		Degraded:  tr.Degraded,
		Answers:   answers,
		Stats:     s.statsJSON(tr.Stats),
	}
	if answers > 0 {
		trailer.FirstAnswerMS = &firstOut
	}
	if terr != nil {
		trailer.Error = terr.Error()
		s.met.observeQuery(string(req.Algo), outcomeError, 0)
	} else {
		outcome := outcomeOK
		if tr.Truncated {
			outcome = outcomeTruncated
		}
		s.met.observeQuery(string(req.Algo), outcome, tr.Stats.Duration)
	}
	if l, err := api.AppendJSON(line, trailer); err == nil {
		line = append(l, '\n')
	}
	flush()
	// The first hit on a cache entry leaves its encodings behind for the
	// next, once the whole result went out.
	if memo != nil && memoized == nil && !clientGone && terr == nil && !tr.Truncated && len(encoded) == answers {
		memo.Store(encoded)
	}
	s.met.observeStream(answers, firstWall)

	if info := infoFrom(r.Context()); info != nil {
		info.queryID = qid
		info.answers = answers
		info.truncated = tr.Truncated
		info.stream = true
		info.firstAnswer = firstWall
	}
}
