package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"banks"
	"banks/internal/api"
	"banks/internal/repl"
)

// nodeJSON is one tree node with its display label.
type nodeJSON struct {
	ID    banks.NodeID `json:"id"`
	Label string       `json:"label"`
}

// edgeJSON is one parent→child tree edge.
type edgeJSON struct {
	From    banks.NodeID `json:"from"`
	To      banks.NodeID `json:"to"`
	Type    string       `json:"type,omitempty"`
	Forward bool         `json:"forward"`
	Weight  float64      `json:"weight"`
}

// answerJSON is one ranked answer tree.
type answerJSON struct {
	Root         banks.NodeID   `json:"root"`
	RootLabel    string         `json:"root_label"`
	Score        float64        `json:"score"`
	EdgeScore    float64        `json:"edge_score"`
	NodeScore    float64        `json:"node_score"`
	Nodes        []nodeJSON     `json:"nodes"`
	Edges        []edgeJSON     `json:"edges"`
	KeywordNodes []banks.NodeID `json:"keyword_nodes"`
	PathWeights  []float64      `json:"path_weights"`
}

// statsJSON carries the §5.2 performance counters over the wire.
type statsJSON struct {
	NodesExplored    int `json:"nodes_explored"`
	NodesTouched     int `json:"nodes_touched"`
	EdgesRelaxed     int `json:"edges_relaxed"`
	AnswersGenerated int `json:"answers_generated"`
	// WorkersUsed is always 0: searches run serially. It stays on the
	// wire for compatibility.
	WorkersUsed     int     `json:"workers_used"`
	DurationMS      float64 `json:"duration_ms"`
	BudgetExhausted bool    `json:"budget_exhausted,omitempty"`
}

func (s *Server) statsJSON(st banks.Stats) statsJSON {
	return statsJSON{
		NodesExplored:    st.NodesExplored,
		NodesTouched:     st.NodesTouched,
		EdgesRelaxed:     st.EdgesRelaxed,
		AnswersGenerated: st.AnswersGenerated,
		DurationMS:       float64(st.Duration) / float64(time.Millisecond),
		BudgetExhausted:  st.BudgetExhausted,
	}
}

// nodeLabel routes node rendering through the mutation overlay when live
// mutations are enabled: runtime-inserted nodes have no source row, and
// the base row mapping would fault on their IDs.
func (s *Server) nodeLabel(u banks.NodeID) string {
	if s.live != nil {
		return s.live.NodeLabel(u)
	}
	return s.db.NodeLabel(u)
}

func (s *Server) explain(a *banks.Answer) string {
	if s.live != nil {
		return s.live.Explain(a)
	}
	return s.db.Explain(a)
}

func (s *Server) answerJSON(a *banks.Answer) answerJSON {
	nodes := make([]nodeJSON, len(a.Nodes))
	for i, u := range a.Nodes {
		nodes[i] = nodeJSON{ID: u, Label: s.nodeLabel(u)}
	}
	edges := make([]edgeJSON, len(a.Edges))
	for i, e := range a.Edges {
		edges[i] = edgeJSON{
			From: e.From, To: e.To,
			Type:    s.db.EdgeTypes.Name(e.Type),
			Forward: e.Forward,
			Weight:  e.Weight,
		}
	}
	return answerJSON{
		Root:         a.Root,
		RootLabel:    s.nodeLabel(a.Root),
		Score:        a.Score,
		EdgeScore:    a.EdgeScore,
		NodeScore:    a.NodeScore,
		Nodes:        nodes,
		Edges:        edges,
		KeywordNodes: a.KeywordNodes,
		PathWeights:  a.PathWeights,
	}
}

// memoAnswers returns a cache hit's encoded answers: each answer's JSON
// object as json.Encoder writes it, made on the cache entry's first hit
// and kept in its memo for every later one.
func (s *Server) memoAnswers(answers []*banks.Answer, memo *banks.Memo) ([][]byte, error) {
	if enc := memo.Answers(); enc != nil {
		return enc, nil
	}
	var buf []byte
	ends := make([]int, len(answers))
	for i, a := range answers {
		var err error
		if buf, err = api.AppendJSON(buf, s.answerJSON(a)); err != nil {
			return nil, err
		}
		ends[i] = len(buf)
	}
	// The bytes live as long as the cache entry: drop the appends' slack.
	buf = append(make([]byte, 0, len(buf)), buf...)
	enc := make([][]byte, len(answers))
	start := 0
	for i, end := range ends {
		enc[i] = buf[start:end:end]
		start = end
	}
	return memo.Store(enc), nil
}

// appendSearch appends the /v1/search body of one result (also one
// /v1/batch element), without a trailing newline. A miss (memo nil)
// encodes its answers straight into the body; a hit splices in the
// memoized encodings.
func (s *Server) appendSearch(dst []byte, req *searchRequest, res *banks.Result, memo *banks.Memo) ([]byte, error) {
	answer := func(dst []byte, i int) ([]byte, error) {
		return api.AppendJSON(dst, s.answerJSON(res.Answers[i]))
	}
	if memo != nil {
		enc, err := s.memoAnswers(res.Answers, memo)
		if err != nil {
			return dst, err
		}
		answer = func(dst []byte, i int) ([]byte, error) { return append(dst, enc[i]...), nil }
	}
	return api.AppendSearch(dst, &api.SearchHead{
		QueryID:   req.queryID(),
		Algo:      string(req.Algo),
		K:         req.Opts.Normalized().K,
		Clamped:   req.Clamped,
		Truncated: res.Stats.Truncated,
	}, len(res.Answers), answer, s.statsJSON(res.Stats))
}

// annotate fills the request-log record for the middleware.
func annotate(r *http.Request, queryID string, answers int, truncated bool) {
	if info := infoFrom(r.Context()); info != nil {
		info.queryID = queryID
		info.answers = answers
		info.truncated = truncated
	}
}

// limits resolves the request's tenant header to its serving limits.
func (s *Server) limits(r *http.Request) TenantLimits {
	return s.tenants.Resolve(r.Header.Get("X-Tenant"))
}

// queryCtx applies the effective deadline to the request context.
func queryCtx(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// runSearch executes one decoded query and records its metrics outcome.
// The duration fed to the latency metric is the search's own execution
// time (Stats.Duration), the one definition every query path shares;
// errored queries have no execution time and contribute only to the
// outcome counter.
func (s *Server) runSearch(ctx context.Context, req *searchRequest) (*banks.Result, *banks.Memo, *httpError) {
	var (
		res  *banks.Result
		memo *banks.Memo
	)
	err := req.optionsError()
	if err == nil {
		res, memo, err = s.eng.SearchMemo(ctx, req.Query, req.Algo, req.Opts)
	}
	if err != nil {
		s.met.observeQuery(string(req.Algo), outcomeError, 0)
		return nil, nil, mapQueryError(err)
	}
	outcome := outcomeOK
	if res.Stats.Truncated {
		outcome = outcomeTruncated
	}
	s.met.observeQuery(string(req.Algo), outcome, res.Stats.Duration)
	return res, memo, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, herr := decodeSearchRequest(r, s.limits(r))
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	ctx, cancel := queryCtx(r, req.Timeout)
	defer cancel()
	res, memo, herr := s.runSearch(ctx, req)
	if herr != nil {
		annotate(r, req.queryID(), 0, false)
		s.writeError(w, herr)
		return
	}
	annotate(r, req.queryID(), len(res.Answers), res.Stats.Truncated)
	_ = api.WriteBody(w, "application/json", func(b []byte) ([]byte, error) {
		b, err := s.appendSearch(b, req, res, memo)
		return append(b, '\n'), err
	})
}

// explainResponse is the /v1/explain body: the same search, rendered the
// way cmd/banks prints it.
type explainResponse struct {
	QueryID   string   `json:"query_id"`
	Algo      string   `json:"algo"`
	Clamped   []string `json:"clamped,omitempty"`
	Truncated bool     `json:"truncated"`
	Explains  []string `json:"explains"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, herr := decodeSearchRequest(r, s.limits(r))
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	ctx, cancel := queryCtx(r, req.Timeout)
	defer cancel()
	res, _, herr := s.runSearch(ctx, req)
	if herr != nil {
		annotate(r, req.queryID(), 0, false)
		s.writeError(w, herr)
		return
	}
	explains := make([]string, len(res.Answers))
	for i, a := range res.Answers {
		explains[i] = s.explain(a)
	}
	annotate(r, req.queryID(), len(explains), res.Stats.Truncated)
	writeJSON(w, explainResponse{
		QueryID:   req.queryID(),
		Algo:      string(req.Algo),
		Clamped:   req.Clamped,
		Truncated: res.Stats.Truncated,
		Explains:  explains,
	})
}

// nearNodeJSON is one activation-ranked node.
type nearNodeJSON struct {
	ID         banks.NodeID `json:"id"`
	Label      string       `json:"label"`
	Activation float64      `json:"activation"`
}

// nearResponse is the /v1/near body.
type nearResponse struct {
	QueryID   string         `json:"query_id"`
	Clamped   []string       `json:"clamped,omitempty"`
	Truncated bool           `json:"truncated"`
	Nodes     []nearNodeJSON `json:"nodes"`
	Stats     statsJSON      `json:"stats"`
}

func (s *Server) handleNear(w http.ResponseWriter, r *http.Request) {
	p, herr := decodeSearchParams(r)
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	// Near queries have no algorithm choice, no output-bound mode, and
	// always combine activations by sum (core.Near forces it); accepting
	// and ignoring any of these would be the silent mismatch the strict
	// decoding exists to prevent.
	if p.Algo != "" {
		s.writeError(w, badRequest("algo", "near queries have no algorithm choice"))
		return
	}
	if p.StrictBound {
		s.writeError(w, badRequest("strict_bound", "near queries have no output bound mode"))
		return
	}
	if p.ActivationSum {
		s.writeError(w, badRequest("activation_sum", "near queries always sum activations; the flag is not configurable"))
		return
	}
	req, herr := p.resolve(s.limits(r))
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	// Discriminate the stable query ID from a tree search over the same
	// terms: "near" takes the algorithm slot in the hash.
	req.Algo = "near"
	ctx, cancel := queryCtx(r, req.Timeout)
	defer cancel()
	var (
		res   []banks.NearResult
		stats banks.Stats
	)
	err := req.optionsError()
	if err == nil {
		res, stats, err = s.eng.Near(ctx, req.Query, req.Opts)
	}
	if err != nil {
		s.met.observeQuery("near", outcomeError, 0)
		annotate(r, req.queryID(), 0, false)
		s.writeError(w, mapQueryError(err))
		return
	}
	outcome := outcomeOK
	if stats.Truncated {
		outcome = outcomeTruncated
	}
	s.met.observeQuery("near", outcome, stats.Duration)
	nodes := make([]nearNodeJSON, len(res))
	for i, n := range res {
		nodes[i] = nearNodeJSON{ID: n.Node, Label: s.nodeLabel(n.Node), Activation: n.Activation}
	}
	annotate(r, req.queryID(), len(nodes), stats.Truncated)
	writeJSON(w, nearResponse{
		QueryID:   req.queryID(),
		Clamped:   req.Clamped,
		Truncated: stats.Truncated,
		Nodes:     nodes,
		Stats:     s.statsJSON(stats),
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, &httpError{status: http.StatusMethodNotAllowed,
			code: api.CodeMethodNotAllowed, message: "batch requests are POST with a JSON body"})
		return
	}
	reqs, timeout, clamped, herr := decodeBatchRequest(r, s.limits(r))
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	ctx, cancel := queryCtx(r, timeout)
	defer cancel()

	// Elements with invalid options fail on their own; the rest run as
	// one engine batch.
	results := make([]*banks.Result, len(reqs))
	memos := make([]*banks.Memo, len(reqs))
	errs := make([]error, len(reqs))
	queries := make([]banks.BatchQuery, 0, len(reqs))
	valid := make([]int, 0, len(reqs))
	for i, req := range reqs {
		if errs[i] = req.optionsError(); errs[i] == nil {
			queries = append(queries, banks.BatchQuery{Query: req.Query, Algo: req.Algo, Opts: req.Opts})
			valid = append(valid, i)
		}
	}
	rs, ms, es := s.eng.SearchBatchMemo(ctx, queries)
	for j, i := range valid {
		results[i], memos[i], errs[i] = rs[j], ms[j], es[j]
	}

	// The body is {"clamped":…,"results":[…],"errors":[…]}: results[i]
	// and errors[i] mirror queries[i], exactly one of the pair non-null.
	// Clamped discloses batch-level reductions (the shared deadline);
	// per-element clamps appear on the elements.
	details := make([]*errorJSON, len(reqs))
	answers, truncated := 0, false
	for i := range reqs {
		if errs[i] != nil {
			s.met.observeQuery(string(reqs[i].Algo), outcomeError, 0)
			he := mapQueryError(errs[i])
			field := he.field
			if field != "" {
				field = fmt.Sprintf("queries[%d].%s", i, field)
			}
			detail := api.NewErrorDetail(he.status, he.code, field, he.message)
			if s.v1ErrorsOnly {
				detail = detail.V1Only()
			}
			details[i] = &detail
			continue
		}
		res := results[i]
		outcome := outcomeOK
		if res.Stats.Truncated {
			outcome = outcomeTruncated
			truncated = true
		}
		s.met.observeQuery(string(reqs[i].Algo), outcome, res.Stats.Duration)
		answers += len(res.Answers)
	}
	annotate(r, "batch", answers, truncated)
	_ = api.WriteBody(w, "application/json", func(b []byte) ([]byte, error) {
		b, err := api.AppendOpen(b, struct {
			Clamped []string `json:"clamped,omitempty"`
		}{clamped})
		if err != nil {
			return b, err
		}
		b = append(b, `"results":[`...)
		for i, res := range results {
			if i > 0 {
				b = append(b, ',')
			}
			if errs[i] != nil {
				b = append(b, "null"...)
				continue
			}
			if b, err = s.appendSearch(b, reqs[i], res, memos[i]); err != nil {
				return b, err
			}
		}
		b = append(b, `],"errors":`...)
		if b, err = api.AppendJSON(b, details); err != nil {
			return b, err
		}
		return append(b, "}\n"...), nil
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

// statuszResponse is the /statusz introspection document.
type statuszResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Dataset       struct {
		Description string `json:"description,omitempty"`
		Nodes       int    `json:"nodes"`
		Edges       int    `json:"edges"`
		Terms       int    `json:"terms"`
		Snapshotted bool   `json:"snapshotted"`
		ZeroCopy    bool   `json:"zero_copy"`
		// Shard discloses that this server holds one partition of a
		// sharded dataset (datagen -shards); the router's routing table
		// verifies its configuration against this claim.
		Shard *shardJSON `json:"shard,omitempty"`
	} `json:"dataset"`
	Engine struct {
		PoolWorkers int    `json:"pool_workers"`
		InFlight    int    `json:"in_flight"`
		Searches    uint64 `json:"searches"`
		Nears       uint64 `json:"nears"`
		Truncated   uint64 `json:"truncated"`
		Errored     uint64 `json:"errored"`
		CacheHits   uint64 `json:"cache_hits"`
		CacheMisses uint64 `json:"cache_misses"`
		CacheLen    int    `json:"cache_len"`
	} `json:"engine"`
	Admission struct {
		Limit    int    `json:"limit"`
		InFlight int    `json:"in_flight"`
		Rejected uint64 `json:"rejected"`
		// TenantRejected counts rejections caused by per-tenant quotas
		// (included in Rejected).
		TenantRejected uint64 `json:"tenant_rejected,omitempty"`
		// Tenants discloses the per-tenant admission state: the
		// configured max in-flight quota for every tenant that has one,
		// plus live in-flight/rejected counts for tenants currently
		// holding or recently refused slots.
		Tenants map[string]tenantAdmissionJSON `json:"tenants,omitempty"`
	} `json:"admission"`
	// Live discloses the mutation-overlay state when live mutations are
	// enabled: the current generation, how much delta has accumulated
	// since it, and cumulative mutation/compaction activity.
	Live *liveJSON `json:"live,omitempty"`
	// Replication discloses follower state when this server tails a
	// primary's write-ahead log (banksd -follow): connection state, the
	// local and primary log positions, and the lag between them.
	Replication *repl.FollowerStats `json:"replication,omitempty"`
	Tenants     []string            `json:"tenants,omitempty"`
	Runtime     struct {
		GoVersion  string `json:"go_version"`
		Goroutines int    `json:"goroutines"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		HeapBytes  uint64 `json:"heap_bytes"`
	} `json:"runtime"`
}

// shardJSON is the /statusz disclosure of a shard snapshot's metadata.
type shardJSON struct {
	Shard           uint32 `json:"shard"`
	NumShards       uint32 `json:"num_shards"`
	OwnedNodes      uint64 `json:"owned_nodes"`
	OwnedComponents uint64 `json:"owned_components"`
	DuplicatedEdges uint64 `json:"duplicated_edges"`
}

// liveJSON is the /statusz disclosure of the live-mutation state.
type liveJSON struct {
	Generation            uint64  `json:"generation"`
	DeltaVersion          uint64  `json:"delta_version"`
	DeltaNodes            int     `json:"delta_nodes"`
	DeltaEdges            int     `json:"delta_edges"`
	Tombstones            int     `json:"tombstones"`
	OpsSinceBase          uint64  `json:"ops_since_base"`
	MutationsTotal        uint64  `json:"mutations_total"`
	MutationBatches       uint64  `json:"mutation_batches"`
	CompactionsTotal      uint64  `json:"compactions_total"`
	LastCompactionSeconds float64 `json:"last_compaction_seconds,omitempty"`
	// WAL discloses the write-ahead log when one is configured; its
	// absence means mutation acks are memory-only between compactions.
	WAL *walJSON `json:"wal,omitempty"`
}

// walJSON is the /statusz disclosure of the write-ahead log.
type walJSON struct {
	Path           string `json:"path"`
	FsyncPolicy    string `json:"fsync_policy"`
	SizeBytes      int64  `json:"size_bytes"`
	Records        uint64 `json:"records"`
	Appends        uint64 `json:"appends"`
	Syncs          uint64 `json:"syncs"`
	Resets         uint64 `json:"resets"`
	AppendFailures uint64 `json:"append_failures"`
	// ReplayedRecords is how many records crash recovery replayed at
	// startup (0 after a clean start).
	ReplayedRecords int `json:"replayed_records"`
}

// tenantAdmissionJSON is one tenant's admission disclosure in /statusz.
type tenantAdmissionJSON struct {
	// MaxInFlight is the configured quota (0 = none; the global limit
	// alone applies).
	MaxInFlight int    `json:"max_in_flight"`
	InFlight    int    `json:"in_flight"`
	Rejected    uint64 `json:"rejected"`
}

// tenantAdmission merges the configured quotas with the live gate state:
// every configured tenant with a quota appears (even when idle), and so
// does any tenant currently holding quota slots or with past rejections.
func (s *Server) tenantAdmission() map[string]tenantAdmissionJSON {
	out := make(map[string]tenantAdmissionJSON)
	for _, name := range s.tenants.Names() {
		if q := s.tenants.Resolve(name).MaxInFlight; q > 0 {
			out[name] = tenantAdmissionJSON{MaxInFlight: q}
		}
	}
	// The default chain may impose a quota on every unconfigured tenant;
	// disclose it under the empty-header key only when active below.
	for name, st := range s.adm.tenantSnapshot() {
		out[name] = tenantAdmissionJSON{
			MaxInFlight: s.tenants.Resolve(name).MaxInFlight,
			InFlight:    st.InFlight,
			Rejected:    st.Rejected,
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	var resp statuszResponse
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	resp.Draining = s.draining.Load()

	resp.Dataset.Description = s.dataset
	resp.Dataset.Nodes = s.db.Graph.NumNodes()
	resp.Dataset.Edges = s.db.Graph.NumEdges()
	resp.Dataset.Terms = s.db.Index.NumTerms()
	resp.Dataset.Snapshotted = s.db.Snapshotted()
	resp.Dataset.ZeroCopy = s.db.SnapshotZeroCopy()
	if sm := s.db.ShardInfo(); sm != nil {
		resp.Dataset.Shard = &shardJSON{
			Shard:           sm.Shard,
			NumShards:       sm.NumShards,
			OwnedNodes:      sm.OwnedNodes,
			OwnedComponents: sm.OwnedComponents,
			DuplicatedEdges: sm.DuplicatedEdges,
		}
	}

	es := s.eng.Stats()
	resp.Engine.PoolWorkers = es.Workers
	resp.Engine.InFlight = es.InFlight
	resp.Engine.Searches = es.Searches
	resp.Engine.Nears = es.Nears
	resp.Engine.Truncated = es.Truncated
	resp.Engine.Errored = es.Errored
	resp.Engine.CacheHits = es.CacheHits
	resp.Engine.CacheMisses = es.CacheMisses
	resp.Engine.CacheLen = es.CacheLen

	resp.Admission.Limit = s.adm.limit
	resp.Admission.InFlight = s.adm.inFlight()
	resp.Admission.Rejected = s.adm.rejectedTotal()
	resp.Admission.TenantRejected = s.adm.tenantRejectedTotal()
	resp.Admission.Tenants = s.tenantAdmission()

	if s.live != nil {
		st := s.live.Stats()
		resp.Live = &liveJSON{
			Generation:            st.Generation,
			DeltaVersion:          st.DeltaVersion,
			DeltaNodes:            st.DeltaNodes,
			DeltaEdges:            st.DeltaEdges,
			Tombstones:            st.Tombstones,
			OpsSinceBase:          st.OpsSinceBase,
			MutationsTotal:        st.MutationsTotal,
			MutationBatches:       st.MutationBatches,
			CompactionsTotal:      st.CompactionsTotal,
			LastCompactionSeconds: st.LastCompactionSeconds,
		}
		if s.live.HasWAL() {
			ws := s.live.WALStats()
			resp.Live.WAL = &walJSON{
				Path:            ws.Path,
				FsyncPolicy:     string(ws.Policy),
				SizeBytes:       ws.SizeBytes,
				Records:         ws.Records,
				Appends:         ws.Appends,
				Syncs:           ws.Syncs,
				Resets:          ws.Resets,
				AppendFailures:  ws.AppendFailures,
				ReplayedRecords: s.live.Replayed(),
			}
		}
	}

	if s.follower != nil {
		st := s.follower.Stats()
		resp.Replication = &st
	}

	resp.Tenants = s.tenants.Names()

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	resp.Runtime.GoVersion = runtime.Version()
	resp.Runtime.Goroutines = runtime.NumGoroutine()
	resp.Runtime.GOMAXPROCS = runtime.GOMAXPROCS(0)
	resp.Runtime.HeapBytes = mem.HeapAlloc

	writeJSON(w, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	es := s.eng.Stats()
	counters := []counterExtra{
		{"banksd_admission_rejected_total", "Requests rejected by the admission gate (HTTP 429).", s.adm.rejectedTotal()},
		{"banksd_admission_tenant_rejected_total", "Requests rejected by a per-tenant in-flight quota (subset of rejected).", s.adm.tenantRejectedTotal()},
		{"banksd_cache_hits_total", "Engine result-cache hits.", es.CacheHits},
		{"banksd_cache_misses_total", "Engine result-cache misses.", es.CacheMisses},
	}
	gauges := []gauge{
		{"banksd_admission_in_flight", "Requests currently admitted.", float64(s.adm.inFlight())},
		{"banksd_admission_limit", "Admission in-flight limit.", float64(s.adm.limit)},
		{"banksd_engine_in_flight", "Engine pool slots currently held.", float64(es.InFlight)},
		{"banksd_engine_pool_workers", "Engine pool width.", float64(es.Workers)},
		{"banksd_cache_entries", "Entries in the engine result cache.", float64(es.CacheLen)},
		{"banksd_draining", "1 once graceful drain has begun.", boolGauge(s.draining.Load())},
		{"banksd_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds()},
		{"go_goroutines", "Number of goroutines.", float64(runtime.NumGoroutine())},
	}
	if s.live != nil {
		st := s.live.Stats()
		counters = append(counters,
			counterExtra{"banksd_mutations_total", "Mutation ops applied (cumulative across compactions).", st.MutationsTotal},
			counterExtra{"banksd_mutation_batches_total", "Mutation batches accepted.", st.MutationBatches},
			counterExtra{"banksd_compactions_total", "Completed snapshot compactions.", st.CompactionsTotal},
		)
		gauges = append(gauges,
			gauge{"banksd_generation", "Current base snapshot generation.", float64(st.Generation)},
			gauge{"banksd_delta_version", "Mutation batches applied since the current base.", float64(st.DeltaVersion)},
			gauge{"banksd_delta_nodes", "Live nodes inserted since the current base.", float64(st.DeltaNodes)},
			gauge{"banksd_delta_edges", "Live edges inserted since the current base.", float64(st.DeltaEdges)},
			gauge{"banksd_delta_tombstones", "Nodes deleted since the current base.", float64(st.Tombstones)},
			gauge{"banksd_ops_since_base", "Mutation ops applied since the current base generation (resets on compaction).", float64(st.OpsSinceBase)},
			gauge{"banksd_compaction_seconds_sum", "Total seconds spent in compactions (pair with banksd_compactions_total for averages).", st.CompactionSecondsSum},
			gauge{"banksd_last_compaction_seconds", "Duration of the most recent compaction.", st.LastCompactionSeconds},
		)
		if s.live.HasWAL() {
			ws := s.live.WALStats()
			counters = append(counters,
				counterExtra{"banksd_wal_appends_total", "Mutation batches appended to the write-ahead log.", ws.Appends},
				counterExtra{"banksd_wal_syncs_total", "fsync calls issued by the write-ahead log.", ws.Syncs},
				counterExtra{"banksd_wal_resets_total", "Write-ahead log truncations (one per compaction).", ws.Resets},
				counterExtra{"banksd_wal_append_failures_total", "Mutation batches the write-ahead log refused (batch not applied).", ws.AppendFailures},
			)
			gauges = append(gauges,
				gauge{"banksd_wal_size_bytes", "Current write-ahead log file size.", float64(ws.SizeBytes)},
				gauge{"banksd_wal_records", "Records currently in the write-ahead log.", float64(ws.Records)},
			)
		}
	}
	if s.follower != nil {
		st := s.follower.Stats()
		counters = append(counters,
			counterExtra{"banksd_replication_records_applied_total", "WAL records applied from the primary's log.", st.RecordsApplied},
			counterExtra{"banksd_replication_bytes_applied_total", "WAL bytes applied from the primary's log.", uint64(st.BytesApplied)},
			counterExtra{"banksd_replication_bootstraps_total", "Snapshot bootstraps (initial sync or re-sync across a compaction).", st.Bootstraps},
			counterExtra{"banksd_replication_reconnects_total", "Stream reconnects after an error or cut.", st.Reconnects},
		)
		gauges = append(gauges,
			gauge{"banksd_replication_connected", "1 while the follower's tail of the primary's log is healthy.", boolGauge(st.Connected)},
			gauge{"banksd_replication_lag_records", "Mutation batches the primary has acknowledged that this follower has not yet applied.", float64(st.LagRecords)},
			gauge{"banksd_replication_lag_bytes", "WAL bytes between the primary's log end and this follower's.", float64(st.LagBytes)},
			gauge{"banksd_replication_lag_seconds", "Seconds this follower has continuously been behind the primary (0 when caught up).", st.LagSeconds},
		)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, counters, gauges)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
