package main

// Span recording for the traced run. Spans come only from the
// benchmark's own code: the client request is the root, a wrapper around
// each banksd and router http.Handler records the handler span, and a
// timing RoundTripper in the router's client records every shard attempt
// (hedges and retries included). The parent travels in the X-Bench-Span
// request header from a caller to the handler it calls, and in the
// request context within one handler, which the router passes on to its
// shard requests. Spans stay in memory and are written out when the run
// ends.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's origin.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Req is the root span's ID, shared by every span of one request.
	Req   uint64 `json:"req"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Bytes is the response size a handler span wrote.
	Bytes  int64 `json:"bytes,omitempty"`
	Status int   `json:"status,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer collects spans. A nil *Tracer records nothing, and the wrappers
// it hands out are the identity, so an untraced run has no tracing code
// on its request path.
type Tracer struct {
	origin time.Time
	next   atomic.Uint64
	// on gates recording, so one run can compare traced and untraced
	// phases over the same servers.
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer {
	t := &Tracer{origin: time.Now()}
	t.on.Store(true)
	return t
}

func (t *Tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *Tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under parent (zero parent starts a new request).
func (t *Tracer) begin(name string, parent, req uint64) Span {
	id := t.next.Add(1)
	if req == 0 {
		req = id
	}
	return Span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now()}
}

// end closes s and keeps it.
func (t *Tracer) end(s Span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// reset drops the recorded spans.
func (t *Tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// writeFile writes the spans as JSON lines.
func (t *Tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

const spanHeader = "X-Bench-Span"

type spanCtxKey struct{}

// spanRef is the (request, span) pair a child attaches to.
type spanRef struct{ req, id uint64 }

func (r spanRef) header() string { return fmt.Sprintf("%d:%d", r.req, r.id) }

func parseSpanRef(h string) (spanRef, bool) {
	a, b, ok := strings.Cut(h, ":")
	if !ok {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return spanRef{req, id}, err1 == nil && err2 == nil
}

// parentOf finds the span a request descends from: the context's span
// (set by an enclosing handler wrapper in this process) or else the
// header the caller sent.
func parentOf(r *http.Request) spanRef {
	if ref, ok := r.Context().Value(spanCtxKey{}).(spanRef); ok {
		return ref
	}
	ref, _ := parseSpanRef(r.Header.Get(spanHeader))
	return ref
}

// wrapHandler records a span named name around every request h serves.
func (t *Tracer) wrapHandler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		p := parentOf(r)
		s := t.begin(name+" "+r.URL.Path, p.id, p.req)
		cw := &countingWriter{ResponseWriter: w}
		ctx := context.WithValue(r.Context(), spanCtxKey{}, spanRef{s.Req, s.ID})
		h.ServeHTTP(cw, r.WithContext(ctx))
		s.Bytes, s.Status = cw.n, cw.status
		t.end(s)
	})
}

// countingWriter counts the bytes and keeps the status a handler
// writes. It forwards Flush so streaming handlers still stream.
type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (c *countingWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// transport returns a RoundTripper that records one span per round trip
// through base — from the request until its body is closed or read to
// the end — and tells the server side its parent.
func (t *Tracer) transport(name string, base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return roundTripper{t: t, name: name, base: base}
}

type roundTripper struct {
	t    *Tracer
	name string
	base http.RoundTripper
}

func (rt roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if !rt.t.enabled() {
		return rt.base.RoundTrip(r)
	}
	p := parentOf(r)
	s := rt.t.begin(rt.name+" "+r.URL.Path, p.id, p.req)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, spanRef{s.Req, s.ID}.header())
	resp, err := rt.base.RoundTrip(r)
	if err != nil {
		rt.t.end(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	t    *Tracer
	s    Span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *spanBody) finish() { b.once.Do(func() { b.t.end(b.s) }) }

// selfTime is s's duration minus the part of it that its children
// cover; overlapping children (a hedge racing its primary attempt, or
// parallel shard fan-out) are counted once.
func selfTime(s Span, children []Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	var curA, curB int64 = 0, -1
	for _, v := range ivs {
		if curB < curA || v.a > curB {
			if curB >= curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB >= curA {
		covered += curB - curA
	}
	return s.Dur() - time.Duration(covered)
}

// children indexes spans by parent ID.
func childrenOf(spans []Span) map[uint64][]Span {
	m := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			m[s.Parent] = append(m[s.Parent], s)
		}
	}
	return m
}
