// Package server is the HTTP/JSON serving front end over banks.Engine:
// the layer that turns the reproduction from a library into the
// interactive system the paper describes (§1 frames BANKS as a web-served
// search system with sub-second answers).
//
// Endpoints:
//
//	GET|POST /v1/search         one keyword query → ranked answer trees
//	GET|POST /v1/search/stream  the same query, answered incrementally as NDJSON
//	POST     /v1/batch          many queries fanned out across the engine pool
//	GET|POST /v1/near           activation-ranked nodes ("near queries", §4.3)
//	GET|POST /v1/explain        a query's answers rendered as indented trees
//	POST     /v1/mutate         apply one batch of live mutations (tenant-gated)
//	POST     /v1/compact        fold the mutation overlay into a new snapshot generation
//	GET      /healthz           liveness; 503 once draining
//	GET      /statusz           JSON introspection: engine, cache, admission, runtime
//	GET      /metrics           Prometheus text format (stdlib-only exporter)
//
// The serving discipline, front to back: admission control bounds how
// many requests may be in flight at once — globally, and per tenant when
// the tenant's limits configure a quota (excess is rejected immediately
// with 429 + Retry-After, keeping the latency tail flat under overload;
// streams hold their slot for their full duration); per-tenant limits
// resolved from the X-Tenant header clamp what an admitted request may
// ask for (k, deadline); the engine's worker pool
// bounds actual search execution; and every query runs under a deadline,
// returning its partial top-k with truncated=true rather than failing
// when time runs out. Streaming responses end with a trailer line
// carrying the same truncation disclosure (docs/STREAMING.md).
package server

import (
	"errors"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"banks"
	"banks/internal/repl"
)

// Config assembles a Server. Engine and DB are required; everything else
// has serving-grade defaults.
type Config struct {
	// Engine executes the queries. Required.
	Engine *banks.Engine
	// DB is the database the engine serves, used for node labels,
	// explain rendering and /statusz. Required.
	DB *banks.DB
	// Live enables the mutation endpoints (POST /v1/mutate and
	// /v1/compact) and routes node labels through the mutation overlay so
	// runtime-inserted nodes render without source rows. Nil serves a
	// read-only instance: the mutation endpoints answer 501.
	Live *banks.Live
	// Tenants maps X-Tenant header values to serving limits.
	// Nil means every tenant gets the built-in limits.
	Tenants *TenantConfig
	// MaxInFlight bounds concurrently admitted query requests
	// (/v1/* endpoints; health, status and metrics are exempt).
	// Default: 4× the engine pool width — enough queue to keep the pool
	// busy across request turnaround, small enough that queue wait stays
	// a few service times.
	MaxInFlight int
	// Logger receives one line per /v1/* request. Nil disables request
	// logging.
	Logger *log.Logger
	// Dataset describes the served data for /statusz (e.g. "dblp factor
	// 0.25" or a snapshot path).
	Dataset string
	// StreamDropToBatch selects the backpressure policy for
	// /v1/search/stream consumers slower than answer generation: false
	// (the default) blocks generation until the client keeps up — strict
	// incrementality at the cost of holding an engine pool slot; true
	// degrades such streams to batch delivery so a slow client never
	// throttles the search (the trailer discloses "degraded").
	StreamDropToBatch bool
	// Follower, when non-nil, marks this instance a replication
	// follower: /v1/mutate and /v1/compact are rejected with not_primary
	// pointing at the primary, and /statusz + /metrics expose the
	// replication lag the Follower reports.
	Follower *repl.Follower
	// V1ErrorsOnly drops the deprecated error-envelope mirror fields
	// (top-level "code", error.status, error.message), emitting the pure
	// v1 contract. The zero value keeps the legacy mirrors during the
	// deprecation window (banksd -legacy-errors=false sets this).
	V1ErrorsOnly bool
}

// Server routes HTTP requests into a banks.Engine.
type Server struct {
	eng     *banks.Engine
	db      *banks.DB
	live    *banks.Live
	tenants *TenantConfig
	adm     *admission
	met     *metrics
	logger  *log.Logger
	dataset string

	streamDropToBatch bool
	follower          *repl.Follower
	publisher         *repl.Publisher // non-nil when Live has a WAL
	v1ErrorsOnly      bool

	start    time.Time
	draining atomic.Bool
	reqSeq   atomic.Uint64
	mux      *http.ServeMux
}

// New builds a Server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: nil engine")
	}
	if cfg.DB == nil {
		return nil, errors.New("server: nil db")
	}
	tenants := cfg.Tenants
	if tenants == nil {
		tenants = DefaultTenantConfig()
	}
	if err := tenants.Validate(); err != nil {
		return nil, err
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = 4 * cfg.Engine.Workers()
	}
	if maxInFlight < 1 {
		return nil, errors.New("server: MaxInFlight must be positive")
	}
	s := &Server{
		eng:               cfg.Engine,
		db:                cfg.DB,
		live:              cfg.Live,
		tenants:           tenants,
		adm:               newAdmission(maxInFlight),
		met:               newMetrics(),
		logger:            cfg.Logger,
		dataset:           cfg.Dataset,
		streamDropToBatch: cfg.StreamDropToBatch,
		follower:          cfg.Follower,
		v1ErrorsOnly:      cfg.V1ErrorsOnly,
		start:             time.Now(),
	}
	if cfg.Live != nil && cfg.Live.HasWAL() {
		// Any WAL-backed live instance can serve its log — a primary to
		// its followers, and a follower to chained replicas downstream.
		pub, err := repl.NewPublisher(repl.PublisherConfig{
			Source: cfg.Live,
			WriteError: func(w http.ResponseWriter, status int, code, field, detail string) {
				s.writeError(w, &httpError{status: status, code: code, field: field, message: detail})
			},
		})
		if err != nil {
			return nil, err
		}
		s.publisher = pub
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/search", s.admitted(s.handleSearch))
	mux.HandleFunc("/v1/search/stream", s.admitted(s.handleSearchStream))
	mux.HandleFunc("/v1/batch", s.admitted(s.handleBatch))
	mux.HandleFunc("/v1/near", s.admitted(s.handleNear))
	mux.HandleFunc("/v1/explain", s.admitted(s.handleExplain))
	mux.HandleFunc("/v1/mutate", s.admitted(s.handleMutate))
	mux.HandleFunc("/v1/compact", s.admitted(s.handleCompact))
	if s.publisher != nil {
		// Replication bypasses admission: a parked long-poll must not
		// hold a query slot, and followers must be able to catch up even
		// when the query path is saturated.
		mux.HandleFunc("/v1/replication/log", s.publisher.ServeLog)
		mux.HandleFunc("/v1/replication/snapshot", s.publisher.ServeSnapshot)
	}
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler: the route mux wrapped in the
// instrumentation middleware (request IDs, logging, metrics, panic
// containment).
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// BeginDrain flips the server into draining mode: /healthz starts
// answering 503 so load balancers stop routing here, while requests
// already in flight run to completion (http.Server.Shutdown closes the
// listeners and waits for them). Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// MaxInFlight reports the admission limit.
func (s *Server) MaxInFlight() int { return s.adm.limit }
