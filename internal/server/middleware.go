package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"banks/internal/api"
)

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the wrapped writer to http.ResponseController, without
// which the stream handler's per-answer flushes would fail as unsupported.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// reqInfo is the per-request record handlers annotate (query ID, answer
// count, truncation) so the middleware can emit one complete log line
// after the response is written.
type reqInfo struct {
	id        uint64
	tenant    string
	queryID   string
	answers   int
	truncated bool
	// stream/firstAnswer annotate streaming requests: whether the request
	// streamed, and the wall-clock latency from handler start to the
	// first emitted answer (0 when no answer was emitted).
	stream      bool
	firstAnswer time.Duration
}

type reqInfoKey struct{}

func infoFrom(ctx context.Context) *reqInfo {
	info, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return info
}

// knownRoutes are the paths the request-counter metric labels verbatim.
// Anything else — scanners probing /wp-login.php, typos, 404s — is
// bucketed as "other": every distinct path would otherwise mint a
// permanent metrics series, an unbounded memory and scrape-size leak on
// an exposed listener.
var knownRoutes = map[string]bool{
	"/v1/search": true, "/v1/search/stream": true, "/v1/batch": true,
	"/v1/near": true, "/v1/explain": true,
	"/v1/mutate": true, "/v1/compact": true,
	"/v1/replication/log": true, "/v1/replication/snapshot": true,
	"/healthz": true, "/statusz": true, "/metrics": true,
}

func metricsPath(path string) string {
	if knownRoutes[path] {
		return path
	}
	return "other"
}

// instrument wraps the route mux with panic containment, per-request IDs,
// the request-counter metric, and (for /v1/ endpoints) one structured log
// line per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &reqInfo{id: s.reqSeq.Add(1), tenant: r.Header.Get("X-Tenant")}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				// A handler panic must not take the process (and every
				// other in-flight query) down with it.
				if s.logger != nil {
					s.logger.Printf("panic rid=%d %s %s: %v\n%s", info.id, r.Method, r.URL.Path, p, debug.Stack())
				}
				if sw.status == 0 {
					s.writeError(sw, &httpError{status: http.StatusInternalServerError,
						code: api.CodeInternal, message: "internal server error"})
				}
			}
			s.met.observeRequest(metricsPath(r.URL.Path), sw.status)
			if s.logger != nil && strings.HasPrefix(r.URL.Path, "/v1/") {
				tenant := info.tenant
				if tenant == "" {
					tenant = "-"
				}
				qid := info.queryID
				if qid == "" {
					qid = "-"
				}
				first := ""
				if info.stream {
					first = fmt.Sprintf(" first=%s", info.firstAnswer.Round(time.Microsecond))
				}
				s.logger.Printf("rid=%d tenant=%s qid=%s %s %s %d %s answers=%d truncated=%v%s",
					info.id, tenant, qid, r.Method, r.URL.RequestURI(), sw.status,
					time.Since(start).Round(time.Microsecond), info.answers, info.truncated, first)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// admitted wraps a query handler with the admission gates: the global
// in-flight bound first, then the tenant's own quota (when its limits
// configure one). At capacity the request is rejected immediately with
// 429 and a Retry-After estimate instead of queueing without bound; the
// error code says which gate refused. The slot — global and tenant —
// is held until the handler returns, so a streaming response counts
// against both gates for its entire lifetime.
func (s *Server) admitted(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.Header.Get("X-Tenant")
		quota := s.tenants.Resolve(tenant).MaxInFlight
		token, ok, byTenant := s.adm.tryAcquire(tenant, quota, s.tenants.Configured(tenant))
		if !ok {
			herr := &httpError{
				status:     http.StatusTooManyRequests,
				code:       api.CodeOverCapacity,
				message:    fmt.Sprintf("server is at its in-flight limit (%d); retry after the indicated delay", s.adm.limit),
				retryAfter: s.adm.retryAfterSeconds(),
			}
			if byTenant {
				herr.code = api.CodeTenantOverCapacity
				herr.message = fmt.Sprintf("tenant is at its in-flight limit (%d); retry after the indicated delay", quota)
			}
			s.writeError(w, herr)
			return
		}
		defer func() { s.adm.release(tenant, quota, token) }()
		next(w, r)
	}
}

// errorBody and errorJSON are the v1 error envelope, defined once in
// internal/api and shared with the router so the two surfaces cannot
// drift apart again.
type errorBody = api.ErrorEnvelope

type errorJSON = api.ErrorDetail

func (s *Server) writeError(w http.ResponseWriter, e *httpError) {
	w.Header().Set("Content-Type", "application/json")
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	w.WriteHeader(e.status)
	env := api.NewError(e.status, e.code, e.field, e.message)
	if s.v1ErrorsOnly {
		env = env.V1Only()
	}
	json.NewEncoder(w).Encode(env)
}

// writeJSON encodes the response body. An encode error at this point is a
// broken client connection — the status line is already out, so there is
// nothing useful left to report to the peer.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
