package core

import (
	"context"
	"math"
	"time"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// MIBackward runs the original Backward expanding search of BANKS (§3):
// one single-source shortest-path (Dijkstra) iterator per keyword node,
// each traversing combined edges in reverse, globally scheduled by the
// distance of the next frontier node. A node settled by iterators covering
// every keyword becomes an answer root.
//
// The per-iterator visited lists deliberately reproduce the algorithm's
// memory behaviour: a node reached by many iterators is stored once per
// iterator, which is exactly the cost §4.2.1 criticizes.
//
// Each step advances the scheduled iterator (settle + expand), which
// touches only iterator-local state and yields a miEvent, then applies the
// event to the cross-iterator state (applyEvent).
//
// ctx bounds the search: on expiry the answers buffered so far are flushed
// as a partial top-k with Stats.Truncated set.
func MIBackward(ctx context.Context, g graph.View, keywords [][]graph.NodeID, opts Options) (*Result, error) {
	ctx = orBackground(ctx)
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := validateInput(g, keywords); err != nil {
		return nil, err
	}
	start := time.Now()
	stats := &Stats{}
	out := newOutputHeap(opts.K, !opts.StrictBound, start, stats, opts.Emit)
	scr := getMIScratch(g.NumNodes(), keywords)
	m := &miSearch{
		canceller: newCanceller(ctx, stats),
		g:         g,
		opts:      opts,
		nk:        len(keywords),
		kw:        keywords,
		scr:       scr,
		out:       out,
		stats:     stats,
		sched:     scr.sched,
	}
	defer m.putScratch()
	if !m.expired() && !anyEmptyKeyword(keywords) {
		m.seed()
		m.run()
	}
	m.putScratch()
	stats.Duration = time.Since(start)
	return &Result{Answers: out.results(), Stats: *stats}, nil
}

// putScratch hands the scratch back to the pool, once. Like
// searchContext.putScratch it runs before the duration is stamped and is
// deferred for other exit paths.
func (m *miSearch) putScratch() {
	if m.scr != nil {
		m.scr.put()
		m.scr = nil
	}
}

// miIterator is one single-source shortest-path iterator (§3): Dijkstra
// from a keyword node over reversed combined edges. All fields are
// iterator-local and never read by the merge — the merge sees only
// miEvents.
//
// An iterator keeps one record per node it has reached, in reach order
// (its slots). The node → slot lookup, one per relaxation, goes through a
// table all the iterators of a search share (miTable): arrays indexed by
// NodeID would be cheaper still, but a query can run thousands of
// iterators, and NumNodes entries each is too much memory.
type miIterator struct {
	// idx is the iterator's index in the search, its key in the table.
	idx  int32
	recs []miRec
	// frontier holds the reached, unsettled nodes, keyed by slot.
	frontier pqueue.Heap[int32]
	// settled counts the nodes settled so far.
	settled int32
}

// miRec is an iterator's bookkeeping for one reached node.
type miRec struct {
	dist float64
	node graph.NodeID
	// next is the slot of the next hop toward the origin (-1 at the
	// origin).
	next  int32
	depth int32
	// seq is the node's settle order in this iterator, -1 until settled.
	seq int32
}

// start makes the iterator a fresh Dijkstra from origin as iterator idx.
// Its records and frontier start out in the given storage (see
// miScratch.iterator). The origin enters its owner's table when it
// settles, which it does first.
func (it *miIterator) start(idx int32, origin graph.NodeID, recs []miRec, items []int32, prio []float64, pos []int32) {
	it.idx, it.settled = idx, 0
	it.recs = append(recs[:0], miRec{node: origin, next: -1, seq: -1})
	it.frontier = *pqueue.NewMin[int32]()
	it.frontier.Use(items, prio, pos)
	it.frontier.Push(0, 0)
}

// miEvent is one settle produced by an iterator's advance: everything the
// merge needs to apply the step's globally visible effects without
// touching iterator state.
type miEvent struct {
	// v was settled at distance d.
	v graph.NodeID
	d float64
	// pred is the settle order (in the same iterator) of v's next hop
	// toward the origin at settle time, -1 at the origin itself. v's own
	// settle order is the number of events its iterator produced before.
	// Predecessor chains run through settled nodes only, whose next
	// pointers are final, so the merge can rebuild root→origin paths from
	// applied events alone.
	pred int32
	// nextD/nextOK give the iterator's frontier head after the expansion —
	// the priority the loop re-schedules the iterator with.
	nextD  float64
	nextOK bool
	// touched/relaxed are the step's Stats deltas (frontier insertions and
	// edge relaxations during the expansion).
	touched, relaxed int
}

// advance runs one getnext() of the iterator (§3) using iterator-local
// state only: settle the minimum-distance frontier node and expand the
// frontier across incoming combined edges. It fills ev with the step's
// globally visible effects, which the search applies in schedule order
// (applyEvent). The frontier must be non-empty. tab is the search's
// node → slot table.
func (it *miIterator) advance(g graph.View, opts *Options, tab *miTable, ev *miEvent) {
	sv, d, _ := it.frontier.Pop()
	rv := &it.recs[sv]
	if it.settled == 0 {
		tab.find(it.idx, rv.node, sv)
	}
	rv.seq = it.settled
	it.settled++
	v, depth := rv.node, rv.depth
	ev.v, ev.d, ev.pred = v, d, -1
	if rv.next >= 0 {
		ev.pred = it.recs[rv.next].seq
	}
	ev.touched, ev.relaxed = 0, 0

	if int(depth) < opts.DMax {
		for _, h := range g.Neighbors(v) {
			if opts.EdgeFilter != nil && !opts.EdgeFilter(h.Type, h.Forward) {
				continue
			}
			u := h.To
			nd := d + h.WIn
			su, seen := tab.find(it.idx, u, int32(len(it.recs)))
			if seen {
				// A reached node is queued until it settles, at a
				// priority equal to its distance.
				ru := &it.recs[su]
				if ru.seq >= 0 {
					continue
				}
				ev.relaxed++
				if nd < ru.dist {
					ru.dist, ru.next, ru.depth = nd, sv, depth+1
					it.frontier.Bump(su, nd)
				}
				continue
			}
			ev.relaxed++
			it.recs = append(it.recs, miRec{dist: nd, node: u, next: sv, depth: depth + 1, seq: -1})
			it.frontier.Push(su, nd)
			ev.touched++
		}
	}
	_, nd, nok := it.frontier.Peek()
	ev.nextD, ev.nextOK = nd, nok
}

// miGlobal is the cross-iterator state of one node: per keyword, the
// best settled distance, the iterator that settled it and the node's
// settle order in that iterator.
type miGlobal struct {
	dist        []float64
	it, seq     []int32
	lastEmitSum float64
}

// miSearch is one MI-Backward search. Besides the shared search plumbing
// it keeps, per iterator, the event-derived state the merge reads:
// keyword index, the settled nodes with their predecessors, and the
// current frontier-head distance.
type miSearch struct {
	canceller

	g    graph.View
	opts Options
	nk   int
	kw   [][]graph.NodeID
	scr  *miScratch

	// iters holds the live iterators.
	iters []*miIterator
	// Per-iterator merge state, indexed like iters.
	kwOf []int
	// chains[idx][s] is the s-th node iterator idx settled, with the
	// settle order of its next hop toward the origin.
	chains [][]miLink
	nextD  []float64
	nextOK []bool

	out   *outputHeap
	stats *Stats
	// sched orders iterators (by index) by their frontier-head distance.
	sched *pqueue.Heap[int32]
}

func (m *miSearch) seed() {
	for i, si := range m.kw {
		for _, u := range si {
			idx := len(m.iters)
			it, chain := m.scr.iterator(idx, u)
			m.stats.NodesTouched++
			m.iters = append(m.iters, it)
			m.kwOf = append(m.kwOf, i)
			m.chains = append(m.chains, chain)
			m.nextD = append(m.nextD, 0)
			m.nextOK = append(m.nextOK, true)
			m.sched.Push(int32(idx), 0)
		}
	}
}

func (m *miSearch) run() {
	const boundEvery = 32
	sinceBound := 0
	var ev miEvent
	for m.sched.Len() > 0 {
		if m.out.full() {
			return
		}
		if m.opts.MaxNodes > 0 && m.stats.NodesExplored >= m.opts.MaxNodes {
			m.stats.BudgetExhausted = true
			break
		}
		if m.cancelled() {
			break
		}
		i, _, _ := m.sched.Pop()
		idx := int(i)
		// A scheduled iterator always has a live frontier head: it is
		// re-queued only while its frontier is non-empty.
		m.iters[idx].advance(m.g, &m.opts, &m.scr.tab, &ev)
		m.applyEvent(idx, ev)
		if ev.nextOK {
			m.sched.Push(i, ev.nextD)
		}
		sinceBound++
		if sinceBound >= boundEvery {
			sinceBound = 0
			score, edge := m.upperBound()
			if m.out.drain(score, edge) {
				return
			}
		}
	}
	m.out.flush()
}

// applyEvent merges one settle into the cross-iterator state, in a fixed
// order: the explored counter first (answer generation stamps read it),
// then the reach recording and any emissions, then the expansion
// counters.
func (m *miSearch) applyEvent(idx int, ev miEvent) {
	seq := int32(len(m.chains[idx]))
	m.chains[idx] = append(m.chains[idx], miLink{node: ev.v, pred: ev.pred})
	m.stats.NodesExplored++
	m.recordReach(ev.v, ev.d, idx, seq)
	m.stats.EdgesRelaxed += ev.relaxed
	m.stats.NodesTouched += ev.touched
	m.nextD[idx], m.nextOK[idx] = ev.nextD, ev.nextOK
}

// recordReach merges a settled (node, dist) pair into the node's global
// state; if the node is now reached from every keyword, answers are
// emitted (the visited-list intersection test of §3). Unlike the
// single-iterator algorithms, Backward search generates a tree per
// iterator combination (§4.6: it "keeps shortest paths to each node
// containing the keyword"), so every settle of a complete node emits the
// combination routing its keyword through the settling iterator; the
// output heap filters duplicates and keeps the best-scoring variants.
// seq is v's settle order in iterator idx.
func (m *miSearch) recordReach(v graph.NodeID, d float64, idx int, seq int32) {
	gn := m.scr.global(v, m.nk)
	kw := m.kwOf[idx]
	if d < gn.dist[kw] {
		gn.dist[kw] = d
		gn.it[kw] = int32(idx)
		gn.seq[kw] = seq
	}
	m.maybeEmit(v, gn)
	// Emit the variant that reaches keyword kw through this specific
	// iterator even when it is not the closest origin — Backward search
	// keeps all such per-origin trees, and a longer path may end at a
	// higher-prestige leaf.
	if gn.it[kw] != int32(idx) {
		m.emitVariant(v, gn, kw, int32(idx), seq)
	}
}

// emitVariant emits the tree rooted at v whose path for keyword kw goes
// through iterator override (which settled v as its seq-th node), with all
// other keywords routed through their best iterators. No-op while v is
// incomplete.
func (m *miSearch) emitVariant(v graph.NodeID, gn *miGlobal, kw int, override, seq int32) {
	for i := 0; i < m.nk; i++ {
		if gn.it[i] < 0 {
			return
		}
	}
	var itBuf, seqBuf [MaxKeywords]int32
	its, seqs := itBuf[:m.nk], seqBuf[:m.nk]
	copy(its, gn.it)
	copy(seqs, gn.seq)
	its[kw], seqs[kw] = override, seq
	m.emitCombination(v, its, seqs)
}

func (m *miSearch) maybeEmit(v graph.NodeID, gn *miGlobal) {
	sum := 0.0
	for i := 0; i < m.nk; i++ {
		if math.IsInf(gn.dist[i], 1) {
			return
		}
		sum += gn.dist[i]
	}
	if sum >= gn.lastEmitSum-1e-12 {
		return
	}
	gn.lastEmitSum = sum
	m.emitCombination(v, gn.it, gn.seq)
}

// emitCombination builds and buffers the answer rooted at v with keyword i
// reached through iterator its[i], which settled v as its seqs[i]-th node.
// Paths are rebuilt from the per-iterator settle chains, which hold
// exactly the settled nodes' final next hops.
func (m *miSearch) emitCombination(v graph.NodeID, its, seqs []int32) {
	ps := &m.scr.paths
	ps.reset()
	for i := 0; i < m.nk; i++ {
		chain := m.chains[its[i]]
		for s := seqs[i]; s >= 0; s = chain[s].pred {
			ps.add(chain[s].node)
		}
		ps.end()
	}
	if a := buildAnswer(m.g, m.opts, v, ps.get(), m.scr.kwBits, m.nk); a != nil {
		m.out.add(a)
	}
}

// upperBound is the §4.5 bound adapted to multiple iterators: mᵢ is the
// smallest next-frontier distance among keyword i's iterators, read from
// the event-derived frontier heads.
func (m *miSearch) upperBound() (score, edge float64) {
	var buf [MaxKeywords]float64
	mi := buf[:m.nk]
	for i := range mi {
		mi[i] = math.Inf(1)
	}
	for idx := range m.nextD {
		if m.nextOK[idx] && m.nextD[idx] < mi[m.kwOf[idx]] {
			mi[m.kwOf[idx]] = m.nextD[idx]
		}
	}
	h := 0.0
	for i := 0; i < m.nk; i++ {
		if math.IsInf(mi[i], 1) {
			// Keyword i's iterators are exhausted: existing distances are
			// final; future answers can only combine already-known reaches
			// for i, so treat its contribution as 0 (conservative).
			continue
		}
		h += mi[i]
	}
	if m.sched.Len() == 0 {
		return 0, math.Inf(1)
	}
	return scoreUpperBound(m.g, h, m.nk, m.opts.Lambda), h
}

// miLink is one settled node of an iterator's chain: the node and the
// settle order of its next hop toward the origin (-1 at the origin).
type miLink struct {
	node graph.NodeID
	pred int32
}
