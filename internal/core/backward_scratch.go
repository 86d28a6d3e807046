package core

import (
	"math"
	"math/bits"
	"sync"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// miScratch is the pooled per-search memory of MI-Backward: the
// search's dense per-node arrays (indexed by NodeID, sized from the
// View), the iterators with their record storage and settle chains, and
// the node → slot lookup table, all reset in O(reached) on return to the
// pool.
type miScratch struct {
	// bits[u] is the bitmask of keywords u matches; kw remembers the
	// keyword lists that set it, for the reset.
	bits []uint32
	kw   [][]graph.NodeID
	// glob[u] is u's cross-iterator record, nil until u settles; reached
	// lists the nodes that have one.
	glob    []*miGlobal
	reached []graph.NodeID
	globs   arena[miGlobal]

	// iters holds the iterators. Their records, frontiers and settle
	// chains start out in slices cut from the arenas below, as do the
	// globs' slices.
	iters  arena[miIterator]
	recs   arena[miRec]
	ints   arena[int32]
	floats arena[float64]
	links  arena[miLink]
	tab    miTable
	sched  *pqueue.Heap[int32]
	paths  pathSet
}

// miInitCap is the number of nodes an iterator's storage holds before it
// grows on its own: a frequent-term query runs thousands of iterators,
// most of which settle only a handful of nodes.
const miInitCap = 8

// miRetainRecs bounds the arena elements a pooled MI scratch keeps, per
// arena (see retainRecords): initial storage for 512 iterators.
const miRetainRecs = 512 * miInitCap

var miScratchPool = sync.Pool{New: func() any {
	return &miScratch{sched: pqueue.NewMin[int32]()}
}}

// getMIScratch takes a clean scratch from the pool, sized for a View of n
// nodes, with the keyword bitmasks filled in.
func getMIScratch(n int, keywords [][]graph.NodeID) *miScratch {
	s := miScratchPool.Get().(*miScratch)
	if len(s.bits) < n {
		s.bits = make([]uint32, n)
		s.glob = make([]*miGlobal, n)
	}
	s.kw = keywords
	for i, kw := range keywords {
		for _, u := range kw {
			s.bits[u] |= 1 << i
		}
	}
	return s
}

// kwBits returns the keyword bitmask of node u.
func (s *miScratch) kwBits(u graph.NodeID) uint32 { return s.bits[u] }

// iterator returns the idx-th iterator of this search, started from
// origin, with its empty settle chain. Both start out in arena storage.
func (s *miScratch) iterator(idx int, origin graph.NodeID) (*miIterator, []miLink) {
	it := &s.iters.take(1)[0]
	it.start(int32(idx), origin, s.recs.take(miInitCap), s.ints.take(miInitCap),
		s.floats.take(miInitCap), s.ints.take(miInitCap))
	return it, s.links.take(miInitCap)[:0]
}

// global returns v's cross-iterator record, creating it unreached by any
// keyword.
func (s *miScratch) global(v graph.NodeID, nk int) *miGlobal {
	if gn := s.glob[v]; gn != nil {
		return gn
	}
	gn := &s.globs.take(1)[0]
	*gn = miGlobal{dist: s.floats.take(nk), it: s.ints.take(nk), seq: s.ints.take(nk), lastEmitSum: math.Inf(1)}
	for i := 0; i < nk; i++ {
		gn.dist[i] = math.Inf(1)
		gn.it[i] = -1
	}
	s.glob[v] = gn
	s.reached = append(s.reached, v)
	return gn
}

// put resets the scratch and returns it to the pool.
func (s *miScratch) put() {
	for _, kw := range s.kw {
		for _, u := range kw {
			s.bits[u] = 0
		}
	}
	s.kw = nil
	clearAt(s.glob, s.reached)
	s.reached = s.reached[:0]
	// The arenas rewind. Iterators and globs are zeroed, dropping storage
	// they grew past their arena slices and references into dropped
	// chunks, and so is the int32 arena, which holds position tables.
	s.iters.reset(miRetainRecs/miInitCap, true)
	s.globs.reset(retainRecords, true)
	s.recs.reset(miRetainRecs, false)
	s.ints.reset(2*miRetainRecs, true)
	s.floats.reset(miRetainRecs, false)
	s.links.reset(miRetainRecs, false)
	if len(s.tab.keys) > 2*miRetainRecs {
		s.tab = miTable{}
	} else {
		s.tab.reset()
	}
	s.sched.Shrink(retainRecords)
	miScratchPool.Put(s)
}

// miTable maps (iterator, node) pairs to iterator-local record slots. One
// open-addressing table serves all the iterators of a search, in place of
// a hash map per iterator: thousands of small maps would each allocate and
// grow on their own.
type miTable struct {
	// keys holds (iterator<<32 | node) + 1, 0 marking an empty cell;
	// slots the matching record slots.
	keys  []uint64
	slots []int32
	n     int // occupied cells
	shift uint
}

// find returns the slot recorded for node u in iterator idx. When there
// is none it records fresh and returns it with found false.
func (t *miTable) find(idx int32, u graph.NodeID, fresh int32) (slot int32, found bool) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	k := (uint64(idx)<<32 | uint64(uint32(u))) + 1
	mask := len(t.keys) - 1
	for i := int((k * 0x9E3779B97F4A7C15) >> t.shift); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return t.slots[i], true
		case 0:
			t.keys[i], t.slots[i] = k, fresh
			t.n++
			return fresh, false
		}
	}
}

// grow doubles the table (at least 1024 cells) and reinserts its entries.
func (t *miTable) grow() {
	n := max(1024, 2*len(t.keys))
	keys, slots := t.keys, t.slots
	t.keys, t.slots = make([]uint64, n), make([]int32, n)
	t.shift = uint(64 - bits.Len(uint(n-1)))
	mask := n - 1
	for c, k := range keys {
		if k == 0 {
			continue
		}
		i := int((k * 0x9E3779B97F4A7C15) >> t.shift)
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.slots[i] = k, slots[c]
	}
}

// reset empties the table. Tables are kept only up to a small size (see
// put), so clearing every cell is cheap.
func (t *miTable) reset() {
	clear(t.keys)
	t.n = 0
}
