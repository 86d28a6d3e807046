package core

import (
	"slices"
	"sync"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// Per-search scratch memory of the single-iterator algorithms
// (Bidirectional, SI-Backward, Near).
//
// Per-node bookkeeping lives in arrays indexed by NodeID and sized from
// the searched View (an overlay View appends nodes, so the base graph's
// size is not enough), and the frontier heaps index their positions the
// same way. Allocating those arrays per query would cost O(NumNodes) for
// a search that touches a few hundred nodes, so a scratch is taken from a
// pool at search start and handed back on every exit path, reset in time
// proportional to what the search touched: the nodes that received state
// (touched), the keyword nodes (seeds), and whatever the heaps still hold.

// retainRecords bounds what a pooled scratch keeps for the next search,
// per arena and per heap (in elements), and the parent-list entries:
// pooled memory is live memory, and a search that needs more allocates
// the rest in proportion to its work.
const retainRecords = 1 << 10

// arenaChunk is the element count of an arena chunk.
const arenaChunk = 1024

// arena hands out slices cut from chunks it keeps across searches. Chunks
// never move, so a pointer into a slice it returned stays valid until the
// next reset.
type arena[T any] struct {
	chunks [][]T
	cur    int // chunk being cut
	off    int // elements cut from it
}

// take returns an n-element slice with capacity n, so appends past it
// allocate elsewhere instead of overwriting a neighbour. Its contents are
// whatever the previous search left there (zero in a fresh chunk).
func (a *arena[T]) take(n int) []T {
	for a.cur < len(a.chunks) && a.off+n > len(a.chunks[a.cur]) {
		a.cur++
		a.off = 0
	}
	if a.cur == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, max(arenaChunk, n)))
		a.off = 0
	}
	c := a.chunks[a.cur]
	s := c[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// reset rewinds the arena, keeping chunks up to about keep elements. If
// zero is set it zeroes what was cut from the kept chunks (the others are
// dropped), so zeroing costs at most keep elements.
func (a *arena[T]) reset(keep int, zero bool) {
	kept, n := 0, 0
	for n < len(a.chunks) && kept < keep {
		kept += len(a.chunks[n])
		n++
	}
	if zero {
		for i := 0; i < n && i <= a.cur; i++ {
			c := a.chunks[i]
			if i == a.cur {
				c = c[:a.off]
			}
			clear(c)
		}
	}
	clear(a.chunks[n:])
	a.chunks = a.chunks[:n]
	a.cur, a.off = 0, 0
}

// scratch is one pooled set of per-search arrays, slabs and heaps.
type scratch struct {
	// state[u] is u's record, nil until the search first touches u.
	state []*nodeState
	// bits[u] is the bitmask of keywords u matches.
	bits []uint32
	// touched lists the nodes with a record, in creation order.
	touched []graph.NodeID
	// seeds lists the keyword nodes in ascending order, without repeats.
	seeds []graph.NodeID
	// Node records, and their dist, act and sp slices.
	recs   arena[nodeState]
	floats arena[float64]
	nodes  arena[graph.NodeID]

	// Heaps by role. Bidirectional uses qmax/qmax2 as Qin/Qout and
	// workMax/workMin for Activate/Attach; SI-Backward uses qmin and
	// workMin; Near uses qmax.
	qmax, qmax2, qmin, workMax, workMin *pqueue.Heap[graph.NodeID]
	cands                               *pqueue.Heap[graph.NodeID]
	bound                               []*pqueue.Heap[graph.NodeID]

	// parents holds every node's explored-parents list (parentEdge).
	parents []parentEdge
	dirty   []pendingEmit
	paths   pathSet
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{
		qmax:    pqueue.NewMax[graph.NodeID](),
		qmax2:   pqueue.NewMax[graph.NodeID](),
		qmin:    pqueue.NewMin[graph.NodeID](),
		workMax: pqueue.NewMax[graph.NodeID](),
		workMin: pqueue.NewMin[graph.NodeID](),
		cands:   pqueue.NewMin[graph.NodeID](),
	}
}}

// getScratch takes a clean scratch from the pool, sized for a View of n
// nodes and a query of the given keyword node lists, with the keyword
// bitmasks and the sorted seed list filled in.
func getScratch(n int, keywords [][]graph.NodeID) *scratch {
	s := scratchPool.Get().(*scratch)
	if len(s.state) < n {
		// A clean scratch holds no state, so growing needs no copy.
		s.state = make([]*nodeState, n)
		s.bits = make([]uint32, n)
	}
	for len(s.bound) < len(keywords) {
		s.bound = append(s.bound, pqueue.NewMin[graph.NodeID]())
	}
	for i, kw := range keywords {
		for _, u := range kw {
			if s.bits[u] == 0 {
				s.seeds = append(s.seeds, u)
			}
			s.bits[u] |= 1 << i
		}
	}
	slices.Sort(s.seeds)
	return s
}

// put resets the scratch in O(touched + seeds + queued) and returns it to
// the pool. Nothing the search returns may point into it.
func (s *scratch) put() {
	clearAt(s.state, s.touched)
	clearAt(s.bits, s.seeds)
	s.touched = s.touched[:0]
	s.seeds = s.seeds[:0]
	// Kept records are zeroed so they do not pin dropped chunks.
	s.recs.reset(retainRecords, true)
	s.floats.reset(2*retainRecords, false)
	s.nodes.reset(retainRecords, false)
	for _, h := range []*pqueue.Heap[graph.NodeID]{s.qmax, s.qmax2, s.qmin, s.workMax, s.workMin, s.cands} {
		h.Shrink(retainRecords)
	}
	for _, h := range s.bound {
		h.Shrink(retainRecords)
	}
	s.dirty = s.dirty[:0]
	s.parents = s.parents[:0]
	if cap(s.parents) > retainRecords {
		s.parents = nil
	}
	scratchPool.Put(s)
}

// clearAt zeroes a[i] for every i in at, or all of a when at covers more
// than a sixteenth of it: one sequential clear is cheaper than that many
// scattered writes.
func clearAt[T any](a []T, at []graph.NodeID) {
	if 16*len(at) > len(a) {
		clear(a)
		return
	}
	var zero T
	for _, i := range at {
		a[i] = zero
	}
}

// pathSet assembles one root→keyword path per keyword in reused storage.
// buildAnswer copies what it keeps, so the paths are dead once it
// returns and the next tree can overwrite them.
type pathSet struct {
	flat  []graph.NodeID
	ends  []int
	paths [][]graph.NodeID
}

// reset starts a new tree.
func (ps *pathSet) reset() {
	ps.flat = ps.flat[:0]
	ps.ends = ps.ends[:0]
}

// add appends u to the path being built.
func (ps *pathSet) add(u graph.NodeID) { ps.flat = append(ps.flat, u) }

// end closes the path being built.
func (ps *pathSet) end() { ps.ends = append(ps.ends, len(ps.flat)) }

// get returns the closed paths, valid until the next reset.
func (ps *pathSet) get() [][]graph.NodeID {
	ps.paths = ps.paths[:0]
	start := 0
	for _, e := range ps.ends {
		ps.paths = append(ps.paths, ps.flat[start:e:e])
		start = e
	}
	return ps.paths
}
