// Package banks is a from-scratch Go implementation of BANKS-II:
// "Bidirectional Expansion For Keyword Search on Graph Databases"
// (Kacholia et al., VLDB 2005).
//
// It provides schema-agnostic keyword search over graph-structured data:
// relational rows become nodes, foreign keys become weighted directed
// edges (plus derived backward edges that penalize hub shortcuts), and a
// query is answered by minimal rooted trees connecting nodes that match
// the keywords, ranked by a combination of path weights and node prestige.
//
// Three search algorithms are included: the paper's contribution,
// Bidirectional expanding search guided by spreading activation, and the
// two Backward expanding baselines (multi-iterator and single-iterator)
// it is evaluated against.
//
// Basic use:
//
//	db := ...                           // *relational.Database, or use datagen
//	bdb, err := banks.Build(db, banks.BuildOptions{})
//	res, err := bdb.Search("gray transaction", banks.Bidirectional, banks.Options{K: 10})
//	for _, a := range res.Answers {
//	    fmt.Println(bdb.Explain(a))
//	}
package banks

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"banks/internal/convert"
	"banks/internal/core"
	"banks/internal/graph"
	"banks/internal/index"
	"banks/internal/prestige"
	"banks/internal/relational"
	"banks/internal/store"
)

// Re-exported types so callers only import this package.
type (
	// Options configures a search; the zero value selects the paper's
	// defaults (k=10, µ=0.5, λ=0.2, dmax=8).
	Options = core.Options
	// Result is a search outcome: answers in output order plus counters.
	Result = core.Result
	// Answer is one minimal rooted answer tree.
	Answer = core.Answer
	// TreeEdge is one parent→child edge of an answer tree.
	TreeEdge = core.TreeEdge
	// Stats carries the §5.2 performance counters.
	Stats = core.Stats
	// NearResult is a node ranked by activation ("near queries").
	NearResult = core.NearResult
	// EmittedAnswer is one incremental answer release, as delivered on a
	// Stream (and to Options.Emit): the answer, its rank so far, and the
	// emission offset from search start.
	EmittedAnswer = core.EmittedAnswer
	// EmittedNear is one incremental near-query emission (Options.EmitNear).
	EmittedNear = core.EmittedNear
	// NodeID identifies a graph node.
	NodeID = graph.NodeID
)

// Algorithm selects a search strategy. It aliases the core type so the
// dispatch logic is shared with internal/engine.
type Algorithm = core.Algo

// Available algorithms.
const (
	// Bidirectional is the paper's contribution (§4).
	Bidirectional = core.AlgoBidirectional
	// SIBackward is single-iterator Backward expanding search (§4.6).
	SIBackward = core.AlgoSIBackward
	// MIBackward is the original Backward expanding search of BANKS (§3).
	MIBackward = core.AlgoMIBackward
)

// Algorithms lists all supported algorithm names.
func Algorithms() []Algorithm { return core.Algos() }

// PrestigeMode selects how node prestige (§2.3) is computed at build time.
type PrestigeMode int

const (
	// PrestigeRandomWalk is the paper's biased PageRank (default).
	PrestigeRandomWalk PrestigeMode = iota
	// PrestigeIndegree is the cheaper BANKS-I log-indegree prestige.
	PrestigeIndegree
	// PrestigeUniform assigns every node prestige 1 (rank by edge score
	// only).
	PrestigeUniform
)

// BuildOptions configures DB construction.
type BuildOptions struct {
	// Prestige selects the node-prestige computation.
	Prestige PrestigeMode
	// PrestigeOptions tunes the random-walk mode.
	PrestigeOptions prestige.Options
	// ForwardWeight optionally assigns schema-defined forward edge weights
	// per foreign key (default: weight 1 for every edge).
	ForwardWeight func(table, fk string) float64
}

// DB is a searchable BANKS database: the data graph, the keyword index,
// and the mapping back to the source relational data.
//
// Concurrency contract: a DB is immutable after Build returns and is safe
// for use by any number of concurrent readers — Search, SearchTerms,
// SearchNodes, Near, their *Context variants, NodeLabel and Explain may all
// run in parallel on the same DB without synchronization. Each search runs
// on the calling goroutine, and so do its Options.EdgeFilter and
// Options.EdgePriority callbacks. Do not mutate the exported fields (or
// the structures they point to) after Build; doing so voids the contract.
type DB struct {
	Graph     *graph.Graph
	Index     *index.Index
	Mapping   *convert.Mapping
	EdgeTypes *convert.EdgeTypes
	// Source is the originating relational data. It is nil for DBs opened
	// from a snapshot, which carry the queryable state only; NodeLabel and
	// Explain then fall back to "table[row]" labels.
	Source *relational.Database

	// snap keeps a snapshot-backed DB's file mapping alive; see Close.
	snap *store.Snapshot
}

// Build converts a frozen relational database into a searchable DB:
// data-graph construction (§2.1), keyword indexing (§3) and prestige
// precomputation (§2.3).
func Build(src *relational.Database, opts BuildOptions) (*DB, error) {
	if src == nil {
		return nil, errors.New("banks: nil source database")
	}
	res, err := convert.Build(src, convert.Options{ForwardWeight: opts.ForwardWeight})
	if err != nil {
		return nil, err
	}
	var p []float64
	switch opts.Prestige {
	case PrestigeRandomWalk:
		p, err = prestige.Compute(res.Graph, opts.PrestigeOptions)
		if err != nil {
			return nil, fmt.Errorf("banks: prestige: %w", err)
		}
	case PrestigeIndegree:
		p = prestige.Indegree(res.Graph)
	case PrestigeUniform:
		p = make([]float64, res.Graph.NumNodes())
		for i := range p {
			p[i] = 1
		}
	default:
		return nil, fmt.Errorf("banks: unknown prestige mode %d", opts.Prestige)
	}
	if err := res.Graph.SetPrestige(p); err != nil {
		return nil, err
	}
	return &DB{
		Graph:     res.Graph,
		Index:     res.Index,
		Mapping:   res.Mapping,
		EdgeTypes: res.EdgeTypes,
		Source:    src,
	}, nil
}

// Keywords splits a free-text query into normalized keyword terms.
func Keywords(query string) []string { return index.Tokenize(query) }

// KeywordNodes returns the nodes matching one term (§2.2 semantics: text
// matches plus relation-name matches).
func (d *DB) KeywordNodes(term string) []NodeID { return d.Index.Lookup(term) }

// Search runs a free-text keyword query with the selected algorithm.
func (d *DB) Search(query string, algo Algorithm, opts Options) (*Result, error) {
	return d.SearchContext(context.Background(), query, algo, opts)
}

// SearchContext is Search bounded by a context: on cancellation or deadline
// expiry the partial top-k generated so far is returned with
// Stats.Truncated set (a bounded search is not an error).
func (d *DB) SearchContext(ctx context.Context, query string, algo Algorithm, opts Options) (*Result, error) {
	terms := Keywords(query)
	if len(terms) == 0 {
		return nil, &core.InputError{Reason: "query contains no keywords"}
	}
	return d.SearchTermsContext(ctx, terms, algo, opts)
}

// SearchTerms runs a query given as pre-split keyword terms.
func (d *DB) SearchTerms(terms []string, algo Algorithm, opts Options) (*Result, error) {
	return d.SearchTermsContext(context.Background(), terms, algo, opts)
}

// SearchTermsContext is SearchTerms bounded by a context.
func (d *DB) SearchTermsContext(ctx context.Context, terms []string, algo Algorithm, opts Options) (*Result, error) {
	kw := make([][]NodeID, len(terms))
	for i, t := range terms {
		kw[i] = d.Index.Lookup(t)
	}
	return d.SearchNodesContext(ctx, kw, algo, opts)
}

// SearchNodes runs a query given directly as per-keyword node sets.
func (d *DB) SearchNodes(kw [][]NodeID, algo Algorithm, opts Options) (*Result, error) {
	return d.SearchNodesContext(context.Background(), kw, algo, opts)
}

// SearchNodesContext is SearchNodes bounded by a context.
func (d *DB) SearchNodesContext(ctx context.Context, kw [][]NodeID, algo Algorithm, opts Options) (*Result, error) {
	return core.Search(ctx, d.Graph, algo, kw, opts)
}

// Near runs a near query (activation-ranked nodes, the §4.3 footnote-6
// extension), e.g. "papers near ‘recovery’ and ‘gray’".
func (d *DB) Near(query string, opts Options) ([]NearResult, Stats, error) {
	return d.NearContext(context.Background(), query, opts)
}

// NearContext is Near bounded by a context: on expiry the nodes activated
// so far are ranked and returned with Stats.Truncated set.
func (d *DB) NearContext(ctx context.Context, query string, opts Options) ([]NearResult, Stats, error) {
	terms := Keywords(query)
	if len(terms) == 0 {
		return nil, Stats{}, &core.InputError{Reason: "query contains no keywords"}
	}
	kw := make([][]NodeID, len(terms))
	for i, t := range terms {
		kw[i] = d.Index.Lookup(t)
	}
	return core.Near(ctx, d.Graph, kw, opts)
}

// NodeLabel renders a node as "table[row]: text…" for display. Without
// source rows (snapshot-opened DBs) the text part is omitted.
func (d *DB) NodeLabel(u NodeID) string {
	ref := d.Mapping.RowOf(d.Graph, u)
	if d.Source == nil {
		return fmt.Sprintf("%s[%d]", ref.Table, ref.Row)
	}
	t := d.Source.Table(ref.Table)
	if t == nil {
		return fmt.Sprintf("%s[%d]", ref.Table, ref.Row)
	}
	row := t.Row(ref.Row)
	text := strings.Join(row.Texts, " | ")
	if len(text) > 60 {
		text = text[:57] + "..."
	}
	if text == "" {
		return fmt.Sprintf("%s[%d]", ref.Table, ref.Row)
	}
	return fmt.Sprintf("%s[%d]: %s", ref.Table, ref.Row, text)
}

// Explain renders an answer tree with source-row labels, one node per
// line, children indented under parents.
func (d *DB) Explain(a *Answer) string {
	return explainTree(d.NodeLabel, a)
}

// explainTree renders an answer tree with the given label function (the
// shared body of DB.Explain and Live.Explain).
func explainTree(label func(NodeID) string, a *Answer) string {
	children := map[NodeID][]NodeID{}
	for _, e := range a.Edges {
		children[e.From] = append(children[e.From], e.To)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "score=%.4f (edge=%.3f, prestige=%.3f)\n", a.Score, a.EdgeScore, a.NodeScore)
	var walk func(u NodeID, depth int)
	walk = func(u NodeID, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if depth > 0 {
			sb.WriteString("└─ ")
		}
		sb.WriteString(label(u))
		sb.WriteByte('\n')
		for _, c := range children[u] {
			walk(c, depth+1)
		}
	}
	walk(a.Root, 0)
	return sb.String()
}
