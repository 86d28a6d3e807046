package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"banks/internal/graph"
)

// TreeEdge is one parent→child edge of an answer tree, directed away from
// the root along combined-graph edges.
type TreeEdge struct {
	From, To graph.NodeID
	// Weight is the combined-graph weight of From→To.
	Weight float64
	// Type is the relationship type of the underlying original edge.
	Type graph.EdgeType
	// Forward reports whether From→To follows the original edge direction.
	Forward bool
}

// Answer is one response: a minimal rooted directed tree covering all
// query keywords (§2.2).
type Answer struct {
	Root graph.NodeID
	// Nodes lists all tree nodes; Nodes[0] is the root.
	Nodes []graph.NodeID
	// Edges lists the tree edges parent→child.
	Edges []TreeEdge
	// KeywordNodes[i] is the node covering keyword i.
	KeywordNodes []graph.NodeID
	// PathWeights[i] is s(T, tᵢ): the realized root→KeywordNodes[i] path
	// weight inside the tree (§2.3).
	PathWeights []float64
	// EdgeScore is E_raw = Σᵢ s(T,tᵢ); lower is better.
	EdgeScore float64
	// NodeScore is N: prestige(root) + Σ prestige over leaf nodes.
	NodeScore float64
	// Score is the overall relevance EScore·N^λ with EScore = 1/(1+E_raw);
	// higher is better.
	Score float64
	// GeneratedAt/OutputAt are offsets from the search start (§5.2's
	// generation vs. output time).
	GeneratedAt time.Duration
	OutputAt    time.Duration
	// ExploredAtGen/TouchedAtGen snapshot the §5.2 node counters at the
	// moment the answer was generated; ExploredAtOut/TouchedAtOut at the
	// moment it was output. The paper measures all metrics "at the last
	// relevant result".
	ExploredAtGen int
	TouchedAtGen  int
	ExploredAtOut int
	TouchedAtOut  int
}

// Size returns the number of nodes in the tree.
func (a *Answer) Size() int { return len(a.Nodes) }

// String renders the answer compactly for logs and examples.
func (a *Answer) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "root=%d score=%.4f nodes=[", a.Root, a.Score)
	for i, u := range a.Nodes {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", u)
	}
	sb.WriteString("] edges=[")
	for i, e := range a.Edges {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d→%d", e.From, e.To)
	}
	sb.WriteString("]")
	return sb.String()
}

// Signature returns a canonical hash of the tree's undirected edge set
// (and node set), used to detect the same tree re-discovered with a
// different root ("rotations", §4.6).
func (a *Answer) Signature() uint64 {
	var buf [32]uint64
	pairs := buf[:0]
	for _, e := range a.Edges {
		lo, hi := e.From, e.To
		if lo > hi {
			lo, hi = hi, lo
		}
		pairs = append(pairs, uint64(lo)<<32|uint64(uint32(hi)))
	}
	if len(pairs) == 0 {
		pairs = append(pairs, uint64(a.Root)<<32|uint64(uint32(a.Root)))
	}
	slices.Sort(pairs)
	// FNV-1a over the sorted pair list.
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, p := range pairs {
		for s := 0; s < 64; s += 8 {
			h ^= (p >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// buildAnswer assembles an answer tree rooted at root from one
// root→keyword-node path per keyword. Paths that merge after diverging are
// spliced: the first parent assignment of a node wins, which keeps the
// edge set a tree while preserving root-to-keyword connectivity. The
// answer is scored from the realized tree. It returns nil when the tree is
// not a minimal answer (§3: a root with a single child whose removal still
// covers all keywords).
//
// kwBits maps nodes to the bitmask of keywords they match (used for the
// minimality test); nk is the keyword count.
func buildAnswer(g graph.View, opts Options, root graph.NodeID, paths [][]graph.NodeID,
	kwBits func(graph.NodeID) uint32, nk int) *Answer {
	lambda := opts.Lambda

	// Trees have at most nk·(DMax+1) nodes, so node lookups scan order
	// linearly; per-node values live in slices parallel to it (stack
	// buffers for the usual small tree).
	size := 1
	for _, path := range paths {
		size += len(path)
	}
	order := make([]graph.NodeID, 1, size)
	order[0] = root
	indexOf := func(u graph.NodeID) int {
		for j, v := range order {
			if v == u {
				return j
			}
		}
		return -1
	}
	var parentBuf, childBuf [64]int32
	var distBuf [64]float64
	parent := append(parentBuf[:0], -1) // parent[j]: order index of order[j]'s parent
	for _, path := range paths {
		if len(path) == 0 || path[0] != root {
			return nil // malformed; defensive
		}
		prev := 0
		for j := 1; j < len(path); j++ {
			at := indexOf(path[j])
			if at < 0 {
				at = len(order)
				order = append(order, path[j])
				parent = append(parent, int32(prev))
			}
			prev = at
		}
	}

	// Realized per-node distance from root along tree edges.
	distFromRoot := append(distBuf[:0], 0)
	var children []int32
	if len(order) <= len(childBuf) {
		children = childBuf[:len(order)]
	} else {
		children = make([]int32, len(order))
	}
	edges := make([]TreeEdge, 0, len(order)-1)
	for j := 1; j < len(order); j++ {
		u, p := order[j], order[parent[j]]
		w, et, fwd, ok := minEdge(g, p, u, opts.EdgeFilter)
		if !ok {
			// The parent pointer must correspond to a combined edge; if
			// not, the caller passed an invalid path.
			return nil
		}
		// The spliced parent may differ from the path predecessor, so the
		// realized distance is computed over tree edges, in insertion
		// order (parents always precede children in order).
		distFromRoot = append(distFromRoot, distFromRoot[parent[j]]+w)
		edges = append(edges, TreeEdge{From: p, To: u, Weight: w, Type: et, Forward: fwd})
		children[parent[j]]++
	}

	// Keyword nodes: last node of each path.
	kwNodes := make([]graph.NodeID, len(paths))
	pathWeights := make([]float64, len(paths))
	edgeScore := 0.0
	for i, path := range paths {
		end := path[len(path)-1]
		kwNodes[i] = end
		pathWeights[i] = distFromRoot[indexOf(end)]
		edgeScore += pathWeights[i]
	}

	// Minimality (§3): a tree whose root has one child is redundant if the
	// keywords are covered without the root.
	if children[0] == 1 && len(order) > 1 {
		var cover uint32
		for _, u := range order[1:] {
			cover |= kwBits(u)
		}
		if cover == fullMask(nk) {
			return nil
		}
	}
	if len(order) == 1 {
		// Single-node answer: the root itself must cover everything.
		if kwBits(root) != fullMask(nk) {
			return nil
		}
	}

	// Node prestige score: root plus leaves (§2.3).
	nodeScore := g.Prestige(root)
	for j := 1; j < len(order); j++ {
		if children[j] == 0 {
			nodeScore += g.Prestige(order[j])
		}
	}
	if len(order) == 1 {
		nodeScore = g.Prestige(root)
	}

	return &Answer{
		Root:         root,
		Nodes:        order,
		Edges:        edges,
		KeywordNodes: kwNodes,
		PathWeights:  pathWeights,
		EdgeScore:    edgeScore,
		NodeScore:    nodeScore,
		Score:        overallScore(edgeScore, nodeScore, lambda),
	}
}

// overallScore combines the aggregate edge score and node prestige per
// §2.3: EScore·N^λ with EScore = 1/(1+E_raw) so that smaller path weights
// give larger relevance.
func overallScore(edgeScore, nodeScore, lambda float64) float64 {
	e := 1 / (1 + edgeScore)
	if nodeScore <= 0 {
		return 0
	}
	return e * math.Pow(nodeScore, lambda)
}

// scoreUpperBound bounds the relevance of any answer whose aggregate edge
// score is at least minEdgeScore (§4.5): the best node score is the
// maximum prestige on the root plus each of the nk keyword leaves.
func scoreUpperBound(g graph.View, minEdgeScore float64, nk int, lambda float64) float64 {
	n := g.MaxPrestige() * float64(nk+1)
	if n <= 0 {
		n = 1
	}
	return overallScore(minEdgeScore, n, lambda)
}

// minEdge returns the cheapest combined edge u→v (over parallel edges)
// that passes the filter, with its metadata.
func minEdge(g graph.View, u, v graph.NodeID, filter func(graph.EdgeType, bool) bool) (w float64, et graph.EdgeType, fwd bool, ok bool) {
	w = math.Inf(1)
	for _, h := range g.Neighbors(u) {
		if h.To != v || h.WOut >= w {
			continue
		}
		if filter != nil && !filter(h.Type, h.Forward) {
			continue
		}
		w, et, fwd, ok = h.WOut, h.Type, h.Forward, true
	}
	return w, et, fwd, ok
}

func fullMask(nk int) uint32 { return uint32(1)<<nk - 1 }
