// Package pqueue provides the hand-rolled indexed binary heap used by the
// search iterators.
//
// The BANKS-II iterators need priority queues whose entries can have their
// priority changed in place while queued: the Attach and Activate procedures
// of the paper (Figure 3) update distances and activations of nodes that are
// already on a frontier. container/heap supports Fix, but requires every
// element to record its own heap index through an interface. Every payload
// here is a small dense integer (a node ID, a per-search slot, an iterator
// index), so the heap records each item's position in a dense []int32
// indexed by the item itself: lookups and position writes are plain array
// accesses, with no hashing and no interface dispatch. The sift loops move
// a hole instead of swapping: each level moves one item and its priority
// and writes one position, and the sifted item is written once, where it
// lands. The resulting layout is exactly that of the swap-based heap
// TestDenseMatchesReference compares against, so the pop order is too.
//
// A max-heap stores negated priorities and negates them back on the way
// out. Negation is exact in IEEE arithmetic (±0 and ±Inf included), so a
// max-heap orders, breaks ties and reports priorities exactly as a
// comparator-based one would, while the sift loops compare with a plain <.
package pqueue

// Item is the constraint for heap payloads: non-negative int32-backed
// values, used directly as indexes into the position table.
type Item interface{ ~int32 }

// Heap is an indexed binary heap over items of type T with float64
// priorities. Whether it is a min-heap or a max-heap is decided by the
// constructor. The zero value is not usable; use NewMin or NewMax.
//
// The position table grows on demand to the largest item pushed, so its
// size tracks the item range, not the queue length. Clear keeps it, which
// makes a cleared heap cheap to reuse across searches over the same
// graph.
type Heap[T Item] struct {
	items []T
	// prio holds sign×priority, so the heap is always a min-heap on it.
	// It is kept apart from items: an {item, prio} entry would pad an
	// int32 item to 16 bytes, and the heap storage a search regrows is a
	// large share of its allocation.
	prio []float64
	// pos[item] is the item's heap index + 1; 0 means absent. Entries of
	// absent items are always 0, which is what lets Clear run in O(Len).
	pos  []int32
	sign float64
}

// NewMin returns a heap that pops the smallest priority first.
func NewMin[T Item]() *Heap[T] { return &Heap[T]{sign: 1} }

// NewMax returns a heap that pops the largest priority first.
func NewMax[T Item]() *Heap[T] { return &Heap[T]{sign: -1} }

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// index returns the heap index of item, or -1 when it is not queued.
func (h *Heap[T]) index(item T) int {
	if int(item) >= len(h.pos) {
		return -1
	}
	return int(h.pos[item]) - 1
}

// Contains reports whether item is currently queued.
func (h *Heap[T]) Contains(item T) bool { return h.index(item) >= 0 }

// Priority returns the queued priority of item. The second result is false
// if the item is not queued.
func (h *Heap[T]) Priority(item T) (float64, bool) {
	i := h.index(item)
	if i < 0 {
		return 0, false
	}
	return h.sign * h.prio[i], true
}

// Push inserts item with the given priority. If the item is already queued
// its priority is updated instead (equivalent to Update).
func (h *Heap[T]) Push(item T, priority float64) {
	if i := h.index(item); i >= 0 {
		h.update(i, h.sign*priority)
		return
	}
	h.insert(item, h.sign*priority)
}

// PushIfAbsent inserts item only if it is not queued, reporting whether an
// insertion happened. Unlike Push it never updates an existing entry.
func (h *Heap[T]) PushIfAbsent(item T, priority float64) bool {
	if h.index(item) >= 0 {
		return false
	}
	h.insert(item, h.sign*priority)
	return true
}

// Update changes the priority of a queued item and restores heap order.
// It reports whether the item was present.
func (h *Heap[T]) Update(item T, priority float64) bool {
	i := h.index(item)
	if i < 0 {
		return false
	}
	h.update(i, h.sign*priority)
	return true
}

// Improve raises the item toward the front of the queue: it updates the
// priority only if the new priority would pop earlier than the current one.
// It reports whether an update happened. Items that are not queued are
// inserted.
func (h *Heap[T]) Improve(item T, priority float64) bool {
	p := h.sign * priority
	i := h.index(item)
	if i < 0 {
		h.insert(item, p)
		return true
	}
	if !(p < h.prio[i]) {
		return false
	}
	h.update(i, p)
	return true
}

// Bump is Improve without insertion: it raises the priority of item only
// if item is queued and the new priority pops earlier. Absent items are
// left absent. It reports whether an update happened.
func (h *Heap[T]) Bump(item T, priority float64) bool {
	p := h.sign * priority
	i := h.index(item)
	if i < 0 || !(p < h.prio[i]) {
		return false
	}
	h.update(i, p)
	return true
}

// Peek returns the front item and its priority without removing it.
// ok is false when the heap is empty.
func (h *Heap[T]) Peek() (item T, priority float64, ok bool) {
	if len(h.items) == 0 {
		return item, 0, false
	}
	return h.items[0], h.sign * h.prio[0], true
}

// Pop removes and returns the front item and its priority.
// ok is false when the heap is empty.
func (h *Heap[T]) Pop() (item T, priority float64, ok bool) {
	if len(h.items) == 0 {
		return item, 0, false
	}
	item, priority = h.items[0], h.sign*h.prio[0]
	h.removeAt(0)
	return item, priority, true
}

// Remove deletes an arbitrary queued item. It reports whether the item was
// present.
func (h *Heap[T]) Remove(item T) bool {
	i := h.index(item)
	if i < 0 {
		return false
	}
	h.removeAt(i)
	return true
}

// Clear removes all items in O(Len), retaining allocated capacity and the
// position table. A heap holding more than a sixteenth of its item range
// zeroes the whole table instead: one sequential clear is cheaper than
// that many scattered writes.
func (h *Heap[T]) Clear() {
	if 16*len(h.items) > len(h.pos) {
		clear(h.pos)
	} else {
		for _, it := range h.items {
			h.pos[it] = 0
		}
	}
	h.items = h.items[:0]
	h.prio = h.prio[:0]
}

// Use empties the heap and has it queue into the given storage until it
// outgrows it: items and prio back the queue (their contents are ignored)
// and pos is the position table, which must be all zero. Callers that
// carve heaps for many short-lived queues out of one allocation use it;
// the heap appends past the storage's capacity like any slice.
func (h *Heap[T]) Use(items []T, prio []float64, pos []int32) {
	h.items, h.prio, h.pos = items[:0], prio[:0], pos[:0]
}

// Shrink is Clear for a heap about to sit idle: it also releases the
// queue storage when its capacity exceeds n items. The position table is
// kept: it is sized by the item range, not by use.
func (h *Heap[T]) Shrink(n int) {
	h.Clear()
	if cap(h.items) > n {
		h.items, h.prio = nil, nil
	}
}

func (h *Heap[T]) insert(item T, p float64) {
	if int(item) >= len(h.pos) {
		h.grow(int(item) + 1)
	}
	h.items = append(h.items, item)
	h.prio = append(h.prio, p)
	h.up(len(h.items)-1, item, p)
}

// grow extends the position table to at least n entries, doubling so a
// heap whose items arrive in increasing order grows in O(log n) steps.
func (h *Heap[T]) grow(n int) {
	if n <= cap(h.pos) {
		// The tail past len was never written (the table never shrinks),
		// so it is still zero.
		h.pos = h.pos[:n]
		return
	}
	if d := 2 * len(h.pos); n < d {
		n = d
	}
	pos := make([]int32, n)
	copy(pos, h.pos)
	h.pos = pos
}

func (h *Heap[T]) removeAt(i int) {
	last := len(h.items) - 1
	h.pos[h.items[i]] = 0
	item, p := h.items[last], h.prio[last]
	h.items = h.items[:last]
	h.prio = h.prio[:last]
	if i < last {
		// The last entry fills the hole at i, sifting whichever way its
		// priority needs.
		h.down(i, item, p)
		h.up(i, h.items[i], h.prio[i])
	}
}

func (h *Heap[T]) update(i int, p float64) {
	if p < h.prio[i] {
		h.up(i, h.items[i], p)
	} else {
		h.down(i, h.items[i], p)
	}
}

// place writes item with priority p at index i and records its position.
func (h *Heap[T]) place(i int, item T, p float64) {
	h.items[i], h.prio[i] = item, p
	h.pos[item] = int32(i + 1)
}

// up sifts item (priority p) toward the root from the hole at index i:
// each parent that pops later moves down into the hole, and item lands
// where the swap-based sift would have left it.
func (h *Heap[T]) up(i int, item T, p float64) {
	for i > 0 {
		parent := (i - 1) / 2
		if !(p < h.prio[parent]) {
			break
		}
		h.place(i, h.items[parent], h.prio[parent])
		i = parent
	}
	h.place(i, item, p)
}

// down sifts item (priority p) toward the leaves from the hole at index
// i. The child choice is the swap-based sift's, comparison for
// comparison — the left child if it pops before item, the right child if
// it pops before that — so ties resolve, and the pop order comes out,
// identically.
func (h *Heap[T]) down(i int, item T, p float64) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best, bp := -1, p
		if l < n && h.prio[l] < bp {
			best, bp = l, h.prio[l]
		}
		if r < n && h.prio[r] < bp {
			best = r
		}
		if best < 0 {
			break
		}
		h.place(i, h.items[best], h.prio[best])
		i = best
	}
	h.place(i, item, p)
}
