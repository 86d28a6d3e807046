package main

// Seeded benchmark inputs: the dataset, the distinct (query, algorithm)
// list, the hot set with its Zipf draws, and the mutation trace. Every
// input is a pure function of the workload seed, so the same seed replays
// the same requests; the program under test only ever sees the generated
// requests.

import (
	"fmt"
	"math/rand"
	"slices"

	"banks"
	"banks/internal/convert"
	"banks/internal/datagen"
	"banks/internal/workload"
)

const (
	// datasetFactor scales the DBLP generator (0.1 ≈ 18.3k nodes).
	datasetFactor = 0.1
	// cacheEntries is banksd's default result-cache size; the hot set must
	// fit in it and the distinct list must be more than twice as long.
	cacheEntries = 256
	// topK and maxNodes are sent explicitly on every search.
	topK     = 10
	maxNodes = 120000
	// searchTimeoutMS is the per-request deadline; a truncated answer
	// counts as failed, so it is set far above any observed latency.
	searchTimeoutMS = 20000
)

var algoNames = []string{"bidirectional", "si-backward", "mi-backward"}

// pair is one (query, algorithm) request.
type pair struct {
	Terms []string
	Algo  string
	// Keywords and Class describe the query's §5.4 cell.
	Keywords int
	Class    string
	// MaxNodes and K override the request's max_nodes and k when
	// non-zero.
	MaxNodes, K int
}

// k is the top-k the pair's requests ask for.
func (p pair) k() int {
	if p.K != 0 {
		return p.K
	}
	return topK
}

// maxNodes is the node budget the pair's requests carry.
func (p pair) maxNodes() int {
	if p.MaxNodes != 0 {
		return p.MaxNodes
	}
	return maxNodes
}

// Query returns the space-joined free-text query.
func (p pair) Query() string {
	s := ""
	for i, t := range p.Terms {
		if i > 0 {
			s += " "
		}
		s += t
	}
	return s
}

// Key identifies the pair.
func (p pair) Key() string { return p.Algo + "|" + p.Query() }

// queryGen wraps the §5.4 size-five generator.
type queryGen struct{ g *workload.Generator }

func newQueryGen(ds *datagen.Dataset, db *banks.DB) queryGen {
	return queryGen{workload.New(ds, &convert.Result{
		Graph: db.Graph, Index: db.Index, Mapping: db.Mapping, EdgeTypes: db.EdgeTypes,
	})}
}

// cells draws perCell distinct queries for every (keyword count, origin
// class) cell, keywords from minKW to maxKW, small and large origin.
func (q queryGen) cells(rng *rand.Rand, minKW, maxKW, perCell int) [][]pair {
	seen := make(map[string]bool)
	var out [][]pair
	for kw := minKW; kw <= maxKW; kw++ {
		for _, class := range []workload.OriginClass{workload.OriginSmall, workload.OriginLarge} {
			var cell []pair
			for tries := 0; tries < perCell*100 && len(cell) < perCell; tries++ {
				wq, ok := q.g.SizeFive(rng, kw, class)
				if !ok {
					continue
				}
				p := pair{Terms: wq.Terms, Keywords: kw, Class: class.String()}
				if seen[p.Query()] {
					continue
				}
				seen[p.Query()] = true
				cell = append(cell, p)
			}
			out = append(out, cell)
		}
	}
	return out
}

// distinctList is the distinct workload's request list: a fixed pool
// of §5.4 queries of 2–6 keywords, small and large origin (drawn with
// poolSeed), each paired with all three algorithms, interleaved round by
// round across the 30 (keywords, class, algorithm) cells so that every
// prefix of the list is a balanced mix. The workload seed orders the
// list: it picks the round the list starts at and shuffles the cells
// within each round. Query costs differ a hundredfold and a run covers
// one pass over the list, so a pool drawn per seed made the seed's
// queries, not the system, set the figures.
func distinctList(q queryGen, seed int64, perCell int) []pair {
	cells := q.cells(rand.New(rand.NewSource(poolSeed)), 2, 6, perCell)
	rng := rand.New(rand.NewSource(seed))
	start := rng.Intn(perCell)
	var out []pair
	for i := 0; i < perCell; i++ {
		r := (start + i) % perCell
		for _, c := range rng.Perm(len(cells)) {
			if r >= len(cells[c]) {
				continue
			}
			for _, a := range algoNames {
				p := cells[c][r]
				p.Algo = a
				out = append(out, p)
			}
		}
	}
	return out
}

// streamAt reports whether request i of the distinct list goes to
// /v1/search/stream (otherwise /v1/search): the choice alternates within
// a round of 30 and flips between rounds, so each cell is served by both
// endpoints in equal measure.
func streamAt(i int) bool { return (i+i/30)%2 == 1 }

// hotSet draws n distinct pairs of 2–4 keyword queries, their
// algorithms rotating through algos; it is the working set of the
// hot-routed, hot-routed-backward and read-write workloads and must fit
// in the result cache.
func hotSet(q queryGen, seed int64, n int, algos []string) []pair {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cells := q.cells(rng, 2, 4, (n+5)/6)
	var out []pair
	for r := 0; len(out) < n; r++ {
		progressed := false
		for c, cell := range cells {
			if r < len(cell) && len(out) < n {
				p := cell[r]
				// Rotating by round as well as cell gives every cell
				// every algorithm, whatever the number of cells.
				p.Algo = algos[(r+c)%len(algos)]
				out = append(out, p)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// newZipf returns client c's source of hot-set indexes: Zipf-skewed
// (s=1.1) so a few pairs dominate, seeded per client.
func newZipf(seed int64, client, hot int) *rand.Zipf {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return rand.NewZipf(rng, 1.1, 1, uint64(hot-1))
}

// traceWords is the generated-text vocabulary of the mutation trace.
var traceWords = []string{
	"mutatetrace", "overlay", "delta", "generation", "compaction",
	"replication", "follower", "tailing", "proximity", "backward",
}

// traceGen generates mutation batches by the rules of `loadgen -mutate`:
// insert_node / insert_edge / insert_term, with inserted node IDs
// predicted from the pre-trace node count (the delta layer assigns them
// sequentially), edges from an inserted node to a base node, and terms
// landing on inserted nodes.
type traceGen struct {
	rng   *rand.Rand
	base  int64
	next  int64
	table string
	seq   int
	// holders maps every generated term to the nodes carrying it. The
	// rules can give one term to two nodes (insert_term's "mutatetrace7"
	// and insert_node's seventh node), so an oracle expects the set.
	holders map[string][]int64
}

// traceOp is one mutation op in /v1/mutate's JSON shape.
type traceOp struct {
	Op     string   `json:"op"`
	Table  string   `json:"table,omitempty"`
	Text   string   `json:"text,omitempty"`
	Node   *int64   `json:"node,omitempty"`
	From   *int64   `json:"from,omitempty"`
	To     *int64   `json:"to,omitempty"`
	Weight *float64 `json:"weight,omitempty"`
	Term   string   `json:"term,omitempty"`
}

// traceBatch is one generated batch plus the unique terms its inserts
// carry and the node IDs the generator predicts for them.
type traceBatch struct {
	Ops []traceOp `json:"ops"`
	// Terms lists the generated terms the batch's inserts carry.
	Terms []string `json:"-"`
	// Inserted lists the node IDs the batch's insert_node ops will get.
	Inserted []int64 `json:"-"`
}

func newTraceGen(seed, baseNodes int64) *traceGen {
	return &traceGen{rng: rand.New(rand.NewSource(seed)), base: baseNodes, next: baseNodes,
		table: "paper", holders: map[string][]int64{}}
}

func i64(v int64) *int64 { return &v }

func (g *traceGen) batch(n int) traceBatch {
	var b traceBatch
	for len(b.Ops) < n {
		switch {
		case g.next == g.base || g.rng.Intn(3) == 0:
			term := fmt.Sprintf("mutatetrace%d", g.next-g.base)
			text := fmt.Sprintf("%s %s %s", term,
				traceWords[g.rng.Intn(len(traceWords))], traceWords[g.rng.Intn(len(traceWords))])
			b.Ops = append(b.Ops, traceOp{Op: "insert_node", Table: g.table, Text: text})
			b.Terms = append(b.Terms, term)
			b.Inserted = append(b.Inserted, g.next)
			g.holders[term] = append(g.holders[term], g.next)
			g.next++
		case g.rng.Intn(2) == 0 && g.base > 0:
			w := 1 + g.rng.Float64()
			b.Ops = append(b.Ops, traceOp{
				Op:   "insert_edge",
				From: i64(g.base + g.rng.Int63n(g.next-g.base)), To: i64(g.rng.Int63n(g.base)),
				Weight: &w,
			})
		default:
			g.seq++
			node := g.base + g.rng.Int63n(g.next-g.base)
			term := fmt.Sprintf("%s%d", traceWords[g.rng.Intn(len(traceWords))], g.seq)
			b.Ops = append(b.Ops, traceOp{Op: "insert_term", Node: i64(node), Term: term})
			b.Terms = append(b.Terms, term)
			if !slices.Contains(g.holders[term], node) {
				g.holders[term] = append(g.holders[term], node)
			}
		}
	}
	return b
}

// toMutationOps converts a batch to the library's op type, for the write
// ladder's direct Live.Apply calls.
func (b traceBatch) toMutationOps() []banks.MutationOp {
	ops := make([]banks.MutationOp, len(b.Ops))
	for i, o := range b.Ops {
		op := banks.MutationOp{Kind: banks.MutationKind(o.Op), Table: o.Table, Text: o.Text, Term: o.Term}
		if o.Node != nil {
			op.Node = banks.NodeID(*o.Node)
		}
		if o.From != nil {
			op.From = banks.NodeID(*o.From)
		}
		if o.To != nil {
			op.To = banks.NodeID(*o.To)
		}
		if o.Weight != nil {
			op.Weight = *o.Weight
		}
		ops[i] = op
	}
	return ops
}
