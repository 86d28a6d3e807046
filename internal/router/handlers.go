package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"banks/internal/api"
)

// maxBodyBytes bounds a forwarded POST body; the shards enforce their
// own (smaller) request limits, this only keeps the router's buffering
// bounded.
const maxBodyBytes = 1 << 20

// routedStats is the routed response's stats object: the shard counters
// aggregated per the aggregate() contract, plus the fan-out width and
// the failover disclosure (extra replica attempts any shard needed —
// omitted when every shard's first replica answered).
type routedStats struct {
	statsJSON
	Shards    int `json:"shards"`
	Failovers int `json:"failovers,omitempty"`
	// MaxReplicaLag is the largest replication lag (in WAL records) any
	// answering replica disclosed: how stale the merged answer can be.
	// Omitted when every shard answered from a primary or a caught-up
	// follower.
	MaxReplicaLag int64 `json:"max_replica_lag,omitempty"`
}

// routedStats is the stats object of a routed response over the given
// number of shards.
func (agg aggregateTrailer) routedStats(shards int) routedStats {
	return routedStats{statsJSON: agg.stats, Shards: shards, Failovers: agg.failovers, MaxReplicaLag: agg.maxReplicaLag}
}

// streamTrailerLine is the final NDJSON line of every routed stream.
type streamTrailerLine struct {
	Type          string      `json:"type"` // always "trailer"
	QueryID       string      `json:"query_id"`
	Algo          string      `json:"algo"`
	K             int         `json:"k"`
	Clamped       []string    `json:"clamped,omitempty"`
	Truncated     bool        `json:"truncated"`
	Cached        bool        `json:"cached,omitempty"`
	Degraded      bool        `json:"degraded,omitempty"`
	Answers       int         `json:"answers"`
	FirstAnswerMS *float64    `json:"first_answer_ms,omitempty"`
	Error         string      `json:"error,omitempty"`
	Stats         routedStats `json:"stats"`
}

// readBody buffers a POST body for replay to every shard. GET requests
// return nil.
func readBody(r *http.Request) ([]byte, *httpError) {
	if r.Body == nil || r.Method == http.MethodGet {
		return nil, nil
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, &httpError{status: http.StatusBadRequest, code: api.CodeBadBody,
			message: fmt.Sprintf("reading request body: %v", err)}
	}
	if len(body) > maxBodyBytes {
		return nil, &httpError{status: http.StatusRequestEntityTooLarge, code: api.CodeBodyTooLarge,
			message: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)}
	}
	return body, nil
}

func checkMethod(r *http.Request) *httpError {
	if r.Method == http.MethodGet || r.Method == http.MethodPost {
		return nil
	}
	return &httpError{status: http.StatusMethodNotAllowed, code: api.CodeMethodNotAllowed,
		message: "use GET with query parameters or POST with a JSON body"}
}

// gather runs the full scatter-gather-merge for one request, mapping
// failures to wire errors.
func (rt *Router) gather(w http.ResponseWriter, r *http.Request) ([]*shardResult, []*wireAnswer, bool) {
	if herr := checkMethod(r); herr != nil {
		w.Header().Set("Allow", "GET, POST")
		writeError(w, herr)
		return nil, nil, false
	}
	body, herr := readBody(r)
	if herr != nil {
		writeError(w, herr)
		return nil, nil, false
	}
	start := time.Now()
	results, err := rt.scatter(r, body)
	if err != nil {
		// A merged answer is only correct when every shard contributed:
		// fail the query rather than serve a silently partial top-k. A
		// shard-side 4xx (bad query, over capacity) passes its status
		// through; infrastructure failures map to 502.
		rt.met.observeQuery(outcomeError, 0)
		writeError(w, mapShardError(err))
		return nil, nil, false
	}
	merged := mergeResults(results)
	outcome := outcomeOK
	if anyTruncated(results) {
		outcome = outcomeTruncated
	}
	rt.met.observeQuery(outcome, time.Since(start))
	return results, merged, true
}

func anyTruncated(results []*shardResult) bool {
	for _, res := range results {
		if res.trailer.Truncated {
			return true
		}
	}
	return false
}

// mapShardError converts a scatter failure to the client-facing error.
// A shard's own 4xx (malformed query, over capacity) is the client's
// fault on every shard equally — its status and code pass through; any
// other failure is the deployment's and maps to 502.
func mapShardError(err error) *httpError {
	var she *shardHTTPError
	if errors.As(err, &she) && she.status >= 400 && she.status < 500 {
		code := she.code
		if code == "" {
			code = api.CodeShardRejected
		}
		return &httpError{status: she.status, code: code, message: err.Error()}
	}
	return &httpError{
		status:  http.StatusBadGateway,
		code:    api.CodeShardError,
		message: err.Error(),
	}
}

func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	results, merged, ok := rt.gather(w, r)
	if !ok {
		return
	}
	agg := aggregate(results)
	annotate(r, agg.queryID, len(merged), agg.truncated)
	_ = api.WriteBody(w, "application/json", func(b []byte) ([]byte, error) {
		b, err := appendSearch(b, agg, len(results), merged)
		return append(b, '\n'), err
	})
}

// appendSearch appends the routed search body of one merged query (no
// trailing newline): the merged answers are the shards' bytes, spliced
// between the envelope pieces.
func appendSearch(dst []byte, agg aggregateTrailer, shards int, merged []*wireAnswer) ([]byte, error) {
	return api.AppendSearch(dst, &api.SearchHead{
		QueryID:   agg.queryID,
		Algo:      agg.algo,
		K:         agg.k,
		Clamped:   agg.clamped,
		Truncated: agg.truncated,
	}, len(merged), func(dst []byte, i int) ([]byte, error) {
		return append(dst, merged[i].raw...), nil
	}, agg.routedStats(shards))
}

// handleSearchStream serves the routed query as NDJSON in the shard wire
// format (docs/STREAMING.md). The router gathers before it emits — the
// global rank of an answer is unknowable until every shard has reported
// — so the stream offers format compatibility, not earlier first bytes;
// clients wanting both should query shards directly.
func (rt *Router) handleSearchStream(w http.ResponseWriter, r *http.Request) {
	results, merged, ok := rt.gather(w, r)
	if !ok {
		return
	}
	agg := aggregate(results)
	annotate(r, agg.queryID, len(merged), agg.truncated)
	_ = api.WriteBody(w, "application/x-ndjson", func(b []byte) ([]byte, error) {
		return appendStream(b, agg, len(results), merged)
	})
}

// appendStream appends the routed NDJSON stream of one merged query:
// one line per merged answer, ranked in merged order and carrying the
// originating shard's own generated_ms/output_ms, then the trailer.
func appendStream(dst []byte, agg aggregateTrailer, shards int, merged []*wireAnswer) ([]byte, error) {
	for i, wa := range merged {
		dst = api.AppendAnswerLine(dst, i+1, wa.generatedMS, wa.outputMS, wa.raw)
	}
	trailer := streamTrailerLine{
		Type:      "trailer",
		QueryID:   agg.queryID,
		Algo:      agg.algo,
		K:         agg.k,
		Clamped:   agg.clamped,
		Truncated: agg.truncated,
		Cached:    agg.cached,
		Degraded:  agg.degraded,
		Answers:   len(merged),
		Stats:     agg.routedStats(shards),
	}
	if len(merged) > 0 {
		first := merged[0].outputMS
		trailer.FirstAnswerMS = &first
	}
	dst, err := api.AppendJSON(dst, trailer)
	return append(dst, '\n'), err
}

// maxRoutedBatch bounds a routed batch's fan-out amplification: each
// element scatters to every shard, so a batch of B costs B×N upstream
// streams. Shard-side tenant batch caps apply to /v1/batch bodies only
// — the router forwards elements as individual queries — so the router
// enforces its own structural cap here.
const maxRoutedBatch = 64

// routedBatchParallel bounds how many batch elements scatter at once, so
// one large batch cannot monopolize every shard's admission slots.
const routedBatchParallel = 4

// routedBatchParams mirrors the shard /v1/batch wire form
// (internal/server batchParams), with the elements kept raw: the router
// forwards them to the shards, which do the real validation.
type routedBatchParams struct {
	TimeoutMS int64             `json:"timeout_ms"`
	Queries   []json.RawMessage `json:"queries"`
}

// routedElem is one successfully merged /v1/batch element.
type routedElem struct {
	agg    aggregateTrailer
	shards int
	merged []*wireAnswer
}

// handleBatch serves a routed batch by fanning each element through the
// same scatter-gather-merge path as /v1/search: every element is
// forwarded to every shard as an individual query and its per-shard
// top-k streams merge with the canonical recipe, so results[i] is
// bit-identical to routing queries[i] through /v1/search alone. The
// batch-level deadline is pushed down by injecting timeout_ms into each
// forwarded element. Per-element failures (a shard rejection or outage
// during that element's fan-out) land in errors[i] without failing the
// siblings.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, &httpError{status: http.StatusMethodNotAllowed,
			code: api.CodeMethodNotAllowed, message: "batch requests are POST with a JSON body"})
		return
	}
	body, herr := readBody(r)
	if herr != nil {
		writeError(w, herr)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var p routedBatchParams
	if err := dec.Decode(&p); err != nil {
		writeError(w, &httpError{status: http.StatusBadRequest, code: api.CodeBadBody,
			message: fmt.Sprintf("decoding batch body: %v", err)})
		return
	}
	if len(p.Queries) == 0 {
		writeError(w, &httpError{status: http.StatusBadRequest, code: api.CodeBadRequest,
			message: "batch contains no queries"})
		return
	}
	if len(p.Queries) > maxRoutedBatch {
		writeError(w, &httpError{status: http.StatusBadRequest, code: api.CodeBatchTooLarge,
			message: fmt.Sprintf("batch of %d queries exceeds the router limit %d", len(p.Queries), maxRoutedBatch)})
		return
	}
	if p.TimeoutMS < 0 {
		writeError(w, &httpError{status: http.StatusBadRequest, code: api.CodeBadRequest,
			message: fmt.Sprintf("timeout must be non-negative, got %d", p.TimeoutMS)})
		return
	}
	bodies := make([][]byte, len(p.Queries))
	for i, raw := range p.Queries {
		edec := json.NewDecoder(bytes.NewReader(raw))
		edec.UseNumber() // preserve numeric literals bit-for-bit through the rewrite
		var m map[string]any
		if err := edec.Decode(&m); err != nil {
			writeError(w, &httpError{status: http.StatusBadRequest, code: api.CodeBadRequest,
				message: fmt.Sprintf("queries[%d]: %v", i, err)})
			return
		}
		if _, ok := m["timeout_ms"]; ok {
			writeError(w, &httpError{status: http.StatusBadRequest, code: api.CodeBadRequest,
				message: fmt.Sprintf("queries[%d].timeout_ms: timeout_ms is per batch: set it at the top level", i)})
			return
		}
		if p.TimeoutMS > 0 {
			m["timeout_ms"] = p.TimeoutMS
		}
		b, err := json.Marshal(m)
		if err != nil {
			writeError(w, &httpError{status: http.StatusBadRequest, code: api.CodeBadRequest,
				message: fmt.Sprintf("queries[%d]: %v", i, err)})
			return
		}
		bodies[i] = b
	}

	// The body mirrors the shard /v1/batch form: results[i] and
	// errors[i] answer queries[i], exactly one of the pair non-null.
	// Element-level clamps (k, timeout) are disclosed on each
	// element, as resolved by the shards.
	elems := make([]*routedElem, len(bodies))
	errs := make([]*errorJSON, len(bodies))
	sem := make(chan struct{}, routedBatchParallel)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			elem := r.Clone(r.Context())
			elem.Method = http.MethodPost
			elem.URL.RawQuery = ""
			elem.Header.Set("Content-Type", "application/json")
			results, err := rt.scatter(elem, bodies[i])
			if err != nil {
				rt.met.observeQuery(outcomeError, 0)
				he := mapShardError(err)
				detail := api.NewErrorDetail(he.status, he.code, "", he.message)
				errs[i] = &detail
				return
			}
			e := &routedElem{agg: aggregate(results), shards: len(results), merged: mergeResults(results)}
			outcome := outcomeOK
			if e.agg.truncated {
				outcome = outcomeTruncated
			}
			rt.met.observeQuery(outcome, time.Since(start))
			elems[i] = e
		}(i)
	}
	wg.Wait()

	answers, truncated := 0, false
	for _, e := range elems {
		if e != nil {
			answers += len(e.merged)
			truncated = truncated || e.agg.truncated
		}
	}
	annotate(r, "batch", answers, truncated)
	_ = api.WriteBody(w, "application/json", func(b []byte) ([]byte, error) {
		return appendBatch(b, elems, errs)
	})
}

// appendBatch appends the routed /v1/batch body, newline included.
func appendBatch(dst []byte, elems []*routedElem, errs []*errorJSON) ([]byte, error) {
	n := len(dst)
	dst = append(dst, `{"results":[`...)
	for i, e := range elems {
		if i > 0 {
			dst = append(dst, ',')
		}
		if e == nil {
			dst = append(dst, "null"...)
			continue
		}
		var err error
		if dst, err = appendSearch(dst, e.agg, e.shards, e.merged); err != nil {
			return dst[:n], err
		}
	}
	dst = append(dst, `],"errors":`...)
	dst, err := api.AppendJSON(dst, errs)
	if err != nil {
		return dst[:n], err
	}
	return append(dst, "}\n"...), nil
}

// handleUnsupported rejects an endpoint the router cannot serve
// correctly, explaining why.
func (rt *Router) handleUnsupported(reason string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &httpError{
			status:  http.StatusNotImplemented,
			code:    api.CodeNotRouted,
			message: reason,
		})
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if rt.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

// replicaStatusJSON is one replica row of the /statusz routing table.
type replicaStatusJSON struct {
	Replica int    `json:"replica"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// LastError is the most recent probe or query failure; empty while
	// healthy.
	LastError string `json:"last_error,omitempty"`
	// CheckedSecondsAgo is the age of the health verdict (-1 before the
	// first probe or query).
	CheckedSecondsAgo float64 `json:"checked_seconds_ago"`
	// EWMALatencyMS is the replica's moving-average stream service time
	// (0 until the first successful fan-out); InFlight its live attempt
	// count. Together they drive replica selection.
	EWMALatencyMS float64 `json:"ewma_latency_ms"`
	InFlight      int64   `json:"in_flight"`
	// ClaimedShard/ClaimedNumShards mirror the backend's own /statusz
	// shard disclosure (absent until probed, or when the backend serves
	// an unsharded snapshot).
	ClaimedShard     *uint32 `json:"claimed_shard,omitempty"`
	ClaimedNumShards *uint32 `json:"claimed_num_shards,omitempty"`
	Nodes            int     `json:"nodes,omitempty"`
	// Misrouted flags a backend whose claim contradicts its position in
	// the routing table (wrong shard index or wrong shard count).
	Misrouted bool `json:"misrouted,omitempty"`
	// Requests/Errors count fan-out attempts against this replica.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// Follower marks a backend that discloses a replication block;
	// ReplicationLagRecords / ReplicationConnected mirror it, and Stale
	// reports whether the lag bound currently demotes this replica in
	// selection.
	Follower              bool   `json:"follower,omitempty"`
	ReplicationLagRecords *int64 `json:"replication_lag_records,omitempty"`
	ReplicationConnected  *bool  `json:"replication_connected,omitempty"`
	Stale                 bool   `json:"stale,omitempty"`
}

// shardStatusJSON is one shard's row: healthy when at least one replica
// is, with the replica set nested.
type shardStatusJSON struct {
	Index     int                 `json:"index"`
	Healthy   bool                `json:"healthy"`
	Failovers uint64              `json:"failovers"`
	Replicas  []replicaStatusJSON `json:"replicas"`
}

// statuszResponse is the router's /statusz introspection document.
// AllHealthy means every shard is answerable (≥1 healthy replica);
// Degraded means the deployment is answerable but some replica is down.
type statuszResponse struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Draining      bool              `json:"draining"`
	NumShards     int               `json:"num_shards"`
	TotalReplicas int               `json:"total_replicas"`
	AllHealthy    bool              `json:"all_healthy"`
	Degraded      bool              `json:"degraded"`
	Shards        []shardStatusJSON `json:"shards"`
	Runtime       struct {
		GoVersion  string `json:"go_version"`
		Goroutines int    `json:"goroutines"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"runtime"`
}

func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	resp := statuszResponse{
		UptimeSeconds: time.Since(rt.start).Seconds(),
		Draining:      rt.draining.Load(),
		NumShards:     len(rt.groups),
		TotalReplicas: len(rt.replicas),
		AllHealthy:    true,
		Shards:        make([]shardStatusJSON, len(rt.groups)),
	}
	now := time.Now()
	for i, g := range rt.groups {
		row := shardStatusJSON{
			Index:     i,
			Failovers: rt.met.shardFailovers(i),
			Replicas:  make([]replicaStatusJSON, len(g.replicas)),
		}
		for j, rep := range g.replicas {
			reqs, errs := rt.met.replicaCounts(i, j)
			inflight := rep.inflight.Load()
			rep.mu.Lock()
			rrow := replicaStatusJSON{
				Replica:           j,
				URL:               rep.url,
				Healthy:           rep.healthy,
				LastError:         rep.lastErr,
				CheckedSecondsAgo: -1,
				EWMALatencyMS:     rep.ewmaNS / 1e6,
				InFlight:          inflight,
				Nodes:             rep.claimedNodes,
				Requests:          reqs,
				Errors:            errs,
			}
			if !rep.lastCheck.IsZero() {
				rrow.CheckedSecondsAgo = now.Sub(rep.lastCheck).Seconds()
			}
			if rep.claimedNumShards != 0 {
				cs, cn := rep.claimedShard, rep.claimedNumShards
				rrow.ClaimedShard, rrow.ClaimedNumShards = &cs, &cn
				rrow.Misrouted = int(cs) != i || int(cn) != len(rt.groups)
			}
			if rep.follower {
				lag, conn := rep.lagRecords, rep.replConnected
				rrow.Follower = true
				rrow.ReplicationLagRecords = &lag
				rrow.ReplicationConnected = &conn
				rrow.Stale = g.maxLag >= 0 && (lag > g.maxLag || !conn)
			}
			rep.mu.Unlock()
			if rrow.Healthy {
				row.Healthy = true
			} else {
				resp.Degraded = true
			}
			row.Replicas[j] = rrow
		}
		if !row.Healthy {
			resp.AllHealthy = false
		}
		resp.Shards[i] = row
	}
	resp.Runtime.GoVersion = runtime.Version()
	resp.Runtime.Goroutines = runtime.NumGoroutine()
	resp.Runtime.GOMAXPROCS = runtime.GOMAXPROCS(0)
	writeJSON(w, resp)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rg := replicaGauges{
		healthy:  make([][]bool, len(rt.groups)),
		inflight: make([][]int64, len(rt.groups)),
	}
	for i, g := range rt.groups {
		rg.healthy[i] = make([]bool, len(g.replicas))
		rg.inflight[i] = make([]int64, len(g.replicas))
		for j, rep := range g.replicas {
			rep.mu.Lock()
			rg.healthy[i][j] = rep.healthy
			rep.mu.Unlock()
			rg.inflight[i][j] = rep.inflight.Load()
		}
	}
	rt.met.write(w, []gauge{
		{"banksrouter_shards", "Configured fan-out width.", float64(len(rt.groups))},
		{"banksrouter_replicas", "Total backend replicas across all shards.", float64(len(rt.replicas))},
		{"banksrouter_draining", "1 once graceful drain has begun.", boolGauge(rt.draining.Load())},
		{"banksrouter_uptime_seconds", "Seconds since the router started.", time.Since(rt.start).Seconds()},
		{"go_goroutines", "Number of goroutines.", float64(runtime.NumGoroutine())},
	}, rg)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
