package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"banks"
	"banks/internal/core"
)

// FuzzDecodeSearchRequest throws arbitrary bytes at the /v1/search
// decoder through both transports (URL query string and JSON body) and
// checks the decoder's contract: it never panics, and whatever it
// accepts respects the tenant clamps — no fuzz input may smuggle a k,
// worker count or deadline past the caps, because those caps are the
// serving layer's overload defense.
func FuzzDecodeSearchRequest(f *testing.F) {
	seeds := []string{
		"q=database+query&k=3",
		"q=gray+transaction&algo=mi-backward&workers=4&timeout=250ms",
		"q=a&k=999999&workers=999999&timeout=9999999",
		"q=%21%21%21",
		"q=db&kk=3",
		"q=db&mu=1.5&lambda=-1&dmax=-2&max_nodes=-1",
		"q=db&strict_bound=true&activation_sum=1",
		"q=db&mu=NaN&lambda=Inf",
		"q=db&timeout=10000000000000",
		`{"query":"db","timeout_ms":10000000000000}`,
		`{"query":"database query","k":3}`,
		`{"query":"db","algo":"si-backward","timeout_ms":100,"workers":2}`,
		`{"query":"db","kk":1}`,
		`{"query":"db"} trailing`,
		`{"query":"` + strings.Repeat("w ", 40) + `"}`,
		`[1,2,3]`,
		"\x00\xff\xfe",
	}
	for _, s := range seeds {
		f.Add(s, true)
		f.Add(s, false)
	}

	// MaxK below core.DefaultK on purpose: an omitted k runs as the
	// default, and the cap must bind that too, not just explicit values.
	lim := TenantLimits{MaxK: 5, MaxTimeoutMS: 500, DefaultTimeoutMS: 200, MaxBatch: 4}

	f.Fuzz(func(t *testing.T, data string, asJSON bool) {
		var r *http.Request
		if asJSON {
			r = httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(data))
		} else {
			// Raw fuzz data lands in RawQuery exactly as a client could
			// send it on the wire (the URL parser has its own fuzzing;
			// here it is just transport).
			r = httptest.NewRequest(http.MethodGet, "/v1/search", nil)
			r.URL.RawQuery = data
		}
		req, herr := decodeSearchRequest(r, lim)
		if herr != nil {
			if req != nil {
				t.Fatal("decoder returned both a request and an error")
			}
			if herr.status < 400 || herr.status > 499 {
				t.Fatalf("decode failure with non-4xx status %d (%s)", herr.status, herr.message)
			}
			if herr.message == "" || herr.code == "" {
				t.Fatalf("error without message/code: %+v", herr)
			}
			return
		}

		// Accepted requests are executable and inside the tenant caps.
		if len(req.Terms) == 0 || len(req.Terms) > core.MaxKeywords {
			t.Fatalf("accepted %d terms", len(req.Terms))
		}
		if !knownAlgo(req.Algo) {
			t.Fatalf("accepted unknown algorithm %q", req.Algo)
		}
		if req.Opts.K > lim.MaxK {
			t.Fatalf("k %d escaped the cap %d", req.Opts.K, lim.MaxK)
		}
		// The cap binds the k the search runs with, defaults included.
		if effK := req.Opts.Normalized().K; effK > lim.MaxK {
			t.Fatalf("normalized k %d escaped the cap %d", effK, lim.MaxK)
		}
		if req.Timeout <= 0 || req.Timeout > lim.MaxTimeout() {
			t.Fatalf("timeout %v outside (0, %v]", req.Timeout, lim.MaxTimeout())
		}
		// The stable ID must be derivable for anything accepted.
		if id := req.queryID(); !strings.HasPrefix(id, "q-") || len(id) != 18 {
			t.Fatalf("bad query id %q", id)
		}
	})
}

// FuzzDecodeStreamRequest throws the same arbitrary inputs at the
// /v1/search/stream decoder: the stream endpoint must be exactly as
// strict as /v1/search — no panic, and no accepted request may smuggle a
// k, worker count or deadline past the tenant caps by asking for a
// stream instead of a batch response. The per-tenant in-flight quota is
// enforced at admission (before decoding), so the decoder contract here
// is the caps themselves.
func FuzzDecodeStreamRequest(f *testing.F) {
	seeds := []string{
		"q=database+query&k=3",
		"q=gray+transaction&algo=mi-backward&workers=4&timeout=250ms",
		"q=a&k=999999&workers=999999&timeout=9999999",
		"q=db&strict_bound=true&activation_sum=1",
		"q=db&mu=NaN&lambda=Inf",
		`{"query":"database query","k":3}`,
		`{"query":"db","algo":"si-backward","timeout_ms":100,"workers":2}`,
		`{"query":"db","buffer":64}`, // not a stream parameter: must 400
		`{"query":"db","drop_to_batch":true}`,
		"\x00\xff\xfe",
	}
	for _, s := range seeds {
		f.Add(s, true)
		f.Add(s, false)
	}

	lim := TenantLimits{MaxK: 5, MaxTimeoutMS: 500, DefaultTimeoutMS: 200, MaxBatch: 4, MaxInFlight: 2}

	f.Fuzz(func(t *testing.T, data string, asJSON bool) {
		var r *http.Request
		if asJSON {
			r = httptest.NewRequest(http.MethodPost, "/v1/search/stream", strings.NewReader(data))
		} else {
			r = httptest.NewRequest(http.MethodGet, "/v1/search/stream", nil)
			r.URL.RawQuery = data
		}
		req, herr := decodeStreamRequest(r, lim)
		if herr != nil {
			if req != nil {
				t.Fatal("decoder returned both a request and an error")
			}
			if herr.status < 400 || herr.status > 499 {
				t.Fatalf("decode failure with non-4xx status %d (%s)", herr.status, herr.message)
			}
			return
		}
		if len(req.Terms) == 0 || len(req.Terms) > core.MaxKeywords {
			t.Fatalf("accepted %d terms", len(req.Terms))
		}
		if !knownAlgo(req.Algo) {
			t.Fatalf("accepted unknown algorithm %q", req.Algo)
		}
		if effK := req.Opts.Normalized().K; effK > lim.MaxK {
			t.Fatalf("normalized k %d escaped the cap %d", effK, lim.MaxK)
		}
		if req.Timeout <= 0 || req.Timeout > lim.MaxTimeout() {
			t.Fatalf("timeout %v outside (0, %v]", req.Timeout, lim.MaxTimeout())
		}
		// Accepted stream requests never carry callbacks from the wire:
		// the emission seam belongs to the engine, not the client.
		if req.Opts.Emit != nil || req.Opts.EmitNear != nil || req.Opts.EdgeFilter != nil || req.Opts.EdgePriority != nil {
			t.Fatal("wire request smuggled a callback into Options")
		}
	})
}

// FuzzDecodeBatchRequest does the same for the batch decoder: no panics,
// and every accepted batch respects MaxBatch and the per-element caps.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add(`{"queries":[{"query":"database query","k":3}]}`)
	f.Add(`{"queries":[{"query":"a"},{"query":"b"},{"query":"c"},{"query":"d"},{"query":"e"}]}`)
	f.Add(`{"timeout_ms":100,"queries":[{"query":"db","workers":99}]}`)
	f.Add(`{"queries":[{"query":"db","timeout_ms":5}]}`)
	f.Add(`{"queries":[]}`)
	f.Add(`not json`)

	lim := TenantLimits{MaxK: 5, MaxTimeoutMS: 500, DefaultTimeoutMS: 200, MaxBatch: 4}

	f.Fuzz(func(t *testing.T, data string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(data))
		reqs, timeout, _, herr := decodeBatchRequest(r, lim)
		if herr != nil {
			if herr.status < 400 || herr.status > 499 {
				t.Fatalf("decode failure with non-4xx status %d", herr.status)
			}
			return
		}
		if len(reqs) == 0 || len(reqs) > lim.MaxBatch {
			t.Fatalf("accepted batch of %d outside (0, %d]", len(reqs), lim.MaxBatch)
		}
		if timeout <= 0 || timeout > time.Duration(lim.MaxTimeoutMS)*time.Millisecond {
			t.Fatalf("batch timeout %v outside caps", timeout)
		}
		for i, req := range reqs {
			if req == nil {
				t.Fatalf("nil element %d in accepted batch", i)
			}
			if effK := req.Opts.Normalized().K; effK > lim.MaxK {
				t.Fatalf("element %d escaped caps: %+v", i, req.Opts)
			}
		}
	})
}

// FuzzDecodeMutateRequest throws arbitrary bytes at the /v1/mutate
// decoder: it never panics, and nothing it accepts can smuggle a value
// past the wire caps — batches stay within the tenant op limit, node IDs
// within the int32 NodeID domain, edge types within uint16, and every op
// carries the fields its kind requires. Weights are finite by JSON
// construction. Semantic validity (node exists, not tombstoned) is the
// delta layer's job and out of scope here.
func FuzzDecodeMutateRequest(f *testing.F) {
	seeds := []string{
		`{"ops":[{"op":"insert_node","table":"paper","text":"keyword search"}]}`,
		`{"ops":[{"op":"insert_edge","from":1,"to":2,"weight":1.5,"edge_type":3}]}`,
		`{"ops":[{"op":"delete_node","node":0}]}`,
		`{"ops":[{"op":"delete_edge","from":0,"to":0}]}`,
		`{"ops":[{"op":"insert_term","node":5,"term":"banks"}]}`,
		`{"ops":[{"op":"delete_term","node":5,"term":"banks"}]}`,
		`{"ops":[{"op":"insert_edge","from":-1,"to":99999999999,"weight":1}]}`,
		`{"ops":[{"op":"insert_edge","from":1,"to":2,"weight":1,"edge_type":65536}]}`,
		`{"ops":[{"op":"insert_edge","from":1,"to":2}]}`,
		`{"ops":[{"op":"nonsense"}]}`,
		`{"ops":[{"op":"insert_node"}]}`,
		`{"ops":[{"op":"insert_term","node":1}]}`,
		`{"ops":[]}`,
		`{"ops":[{"op":"delete_node","node":1},{"op":"delete_node","node":2},{"op":"delete_node","node":3}]}`,
		`{"oops":[]}`,
		`{"ops":[{"op":"delete_node","node":1}]} trailing`,
		`not json`,
		"\x00\xff\xfe",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	const maxOps = 2

	f.Fuzz(func(t *testing.T, data string) {
		ops, herr := decodeMutateOps(strings.NewReader(data), maxOps)
		if herr != nil {
			if ops != nil {
				t.Fatal("decoder returned both ops and an error")
			}
			if herr.status < 400 || herr.status > 499 {
				t.Fatalf("decode failure with non-4xx status %d (%s)", herr.status, herr.message)
			}
			if herr.message == "" || herr.code == "" {
				t.Fatalf("error without message/code: %+v", herr)
			}
			return
		}
		if len(ops) == 0 || len(ops) > maxOps {
			t.Fatalf("accepted batch of %d outside (0, %d]", len(ops), maxOps)
		}
		for i, op := range ops {
			switch op.Kind {
			case banks.OpInsertNode:
				if op.Table == "" {
					t.Fatalf("op %d: insert_node without table", i)
				}
			case banks.OpInsertEdge:
				if op.From < 0 || op.To < 0 {
					t.Fatalf("op %d: negative node ID escaped: %+v", i, op)
				}
				if op.Weight != op.Weight || op.Weight > 1e308 || op.Weight < -1e308 {
					t.Fatalf("op %d: non-finite weight escaped: %v", i, op.Weight)
				}
			case banks.OpDeleteNode:
				if op.Node < 0 {
					t.Fatalf("op %d: negative node ID escaped", i)
				}
			case banks.OpDeleteEdge:
				if op.From < 0 || op.To < 0 {
					t.Fatalf("op %d: negative node ID escaped", i)
				}
			case banks.OpInsertTerm, banks.OpDeleteTerm:
				if op.Node < 0 || op.Term == "" {
					t.Fatalf("op %d: term op missing fields: %+v", i, op)
				}
			default:
				t.Fatalf("op %d: unknown kind %q escaped the decoder", i, op.Kind)
			}
		}
	})
}
