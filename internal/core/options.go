// Package core implements the search algorithms of BANKS-II: Backward
// expanding search (§3) in both its multi-iterator (MI) and single-iterator
// (SI) variants, and the paper's contribution, Bidirectional expanding
// search with spreading-activation prioritization (§4).
//
// All algorithms share the answer model of §2.2–2.3: an answer is a
// minimal rooted directed tree embedded in the combined data graph,
// containing at least one node matching each query keyword, scored by
// EScore·N^λ where EScore = 1/(1+Σᵢ s(T,tᵢ)) derives from root→keyword
// path weights and N is the prestige of the root and the leaves.
package core

import (
	"fmt"

	"banks/internal/graph"
)

// MaxKeywords is the largest supported query size. The paper's workloads
// use 2–7 keywords; 16 leaves generous headroom while keeping per-node
// state compact.
const MaxKeywords = 16

// OptionsError reports an invalid Options field. Every validation failure
// returned by the search entry points for bad options is of this type, so
// callers can test with errors.As and switch on Field.
type OptionsError struct {
	// Field names the offending Options field (e.g. "Mu").
	Field string
	// Reason describes the constraint that was violated.
	Reason string
}

func (e *OptionsError) Error() string { return "core: " + e.Field + " " + e.Reason }

// InputError reports a query the search entry points cannot run: no
// keyword sets, more than MaxKeywords of them, a keyword node outside the
// graph, or no graph at all. Callers can test for it with errors.As.
type InputError struct {
	// Reason describes what is wrong with the input.
	Reason string
}

func (e *InputError) Error() string { return "core: " + e.Reason }

// Default parameter values from the paper (§2.3, §4.2, §5.1).
const (
	DefaultMu     = 0.5
	DefaultLambda = 0.2
	DefaultDMax   = 8
	DefaultK      = 10
)

// Options configures a search. The zero value selects the paper's
// defaults.
type Options struct {
	// K is the number of answers to produce (top-k). Default 10.
	K int
	// Mu is the activation attenuation factor µ (§4.3). Default 0.5.
	// Only Bidirectional search uses it.
	Mu float64
	// Lambda weights node prestige in the overall tree score EScore·N^λ
	// (§2.3). Default 0.2.
	Lambda float64
	// DMax is the depth cutoff d_max (§4.2): nodes at this depth from the
	// nearest keyword node are not expanded further. Default 8.
	DMax int
	// MaxNodes bounds the number of node expansions (pops); 0 means
	// unlimited. When exhausted the search flushes buffered answers and
	// returns what it has.
	MaxNodes int
	// StrictBound selects the tighter upper-bound computation of §4.5
	// (tracking seen-but-incomplete nodes, NRA-style). The default (false)
	// is the paper's "looser heuristic" — cheaper, outputs faster, and
	// empirically correct order (§5.7); it is what their experiments use.
	StrictBound bool
	// ActivationSum switches per-keyword activation combination from max
	// to sum (the paper's footnote-6 extension backing "near queries",
	// appropriate for scoring models that aggregate multiple paths).
	ActivationSum bool
	// EdgeFilter, when non-nil, restricts traversal to edges for which it
	// returns true (the §1 extension "enforce constraints using edge types
	// to restrict search to specified search paths"). The forward flag
	// tells whether the combined edge being traversed is an original edge.
	EdgeFilter func(t graph.EdgeType, forward bool) bool
	// EdgePriority, when non-nil, multiplies the activation spread across
	// an edge (the §1 extension "prioritize certain paths over others").
	// It does not affect distances or scores, only search order. Both
	// callbacks run on the goroutine running the search.
	EdgePriority func(t graph.EdgeType, forward bool) float64
	// Emit, when non-nil, is invoked synchronously at the exact moment the
	// output heap releases an answer (§5.2's "output" event), on the
	// goroutine running the search. The emitted sequence is bit-identical
	// in content and order to the Result.Answers the search returns,
	// including truncated prefixes under cancellation. The callback must
	// not modify the answer and must not re-enter the search; it may
	// block, which stalls answer generation (the streaming layers build
	// their backpressure policies on exactly that). Emit never changes
	// what a search computes — only when the caller hears about it — but
	// it has no identity to cache on, so queries carrying it bypass the
	// engine result cache. Tree searches only; Near uses EmitNear.
	Emit func(EmittedAnswer)
	// EmitNear, when non-nil, receives each near-query result as it is
	// ranked (all at search end — activation ranking needs the full
	// spread; see EmittedNear). The emitted sequence is identical to the
	// returned slice. Same re-entrancy and caching caveats as Emit.
	EmitNear func(EmittedNear)
}

// Normalized returns the options with zero values replaced by the paper's
// defaults — the form the algorithms actually run with. Two Options values
// with equal Normalized() forms describe the same search, which the engine
// result cache relies on for canonical keys.
func (o Options) Normalized() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = DefaultK
	}
	if o.Mu == 0 {
		o.Mu = DefaultMu
	}
	if o.Lambda == 0 {
		o.Lambda = DefaultLambda
	}
	if o.DMax == 0 {
		o.DMax = DefaultDMax
	}
	return o
}

// Validate checks the options exactly as the search entry points do
// (defaults applied first), returning the same typed *OptionsError on the
// first invalid field. It exists for callers that must fail fast before
// launching an asynchronous search — the engine's streaming path
// validates here so an invalid request errors synchronously instead of
// surfacing after the stream has started.
func (o Options) Validate() error { return o.withDefaults().validate() }

func (o Options) validate() error {
	if o.K < 0 {
		return &OptionsError{Field: "K", Reason: "must be non-negative"}
	}
	// Both range checks are written as negated conjunctions so NaN —
	// which fails every comparison — lands in the error branch instead
	// of slipping through and poisoning scores downstream.
	if !(o.Mu > 0 && o.Mu < 1) {
		return &OptionsError{Field: "Mu", Reason: fmt.Sprintf("must be in (0,1), got %v", o.Mu)}
	}
	if !(o.Lambda >= 0) {
		return &OptionsError{Field: "Lambda", Reason: fmt.Sprintf("must be non-negative, got %v", o.Lambda)}
	}
	if o.DMax < 0 {
		return &OptionsError{Field: "DMax", Reason: "must be non-negative"}
	}
	if o.MaxNodes < 0 {
		return &OptionsError{Field: "MaxNodes", Reason: "must be non-negative"}
	}
	return nil
}

func validateInput(g graph.View, keywords [][]graph.NodeID) error {
	// The typed-nil check catches callers passing a nil *graph.Graph
	// through the View interface (non-nil interface, nil concrete value).
	if g == nil || g == (graph.View)((*graph.Graph)(nil)) {
		return &InputError{Reason: "nil graph"}
	}
	if len(keywords) == 0 {
		return &InputError{Reason: "no keywords"}
	}
	if len(keywords) > MaxKeywords {
		return &InputError{Reason: fmt.Sprintf("%d keywords exceeds maximum %d", len(keywords), MaxKeywords)}
	}
	n := graph.NodeID(g.NumNodes())
	for i, s := range keywords {
		for _, u := range s {
			if u < 0 || u >= n {
				return &InputError{Reason: fmt.Sprintf("keyword %d matches node %d outside graph", i, u)}
			}
		}
	}
	return nil
}
