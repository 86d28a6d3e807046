package pqueue

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinHeapBasic(t *testing.T) {
	h := NewMin[int32]()
	if _, _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap returned ok")
	}
	if _, _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty heap returned ok")
	}
	h.Push(1, 3.0)
	h.Push(2, 1.0)
	h.Push(3, 2.0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	item, prio, ok := h.Peek()
	if !ok || item != 2 || prio != 1.0 {
		t.Fatalf("Peek = (%d,%v,%v), want (2,1,true)", item, prio, ok)
	}
	want := []int32{2, 3, 1}
	for _, w := range want {
		got, _, ok := h.Pop()
		if !ok || got != w {
			t.Fatalf("Pop = %d, want %d", got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len after draining = %d, want 0", h.Len())
	}
}

func TestMaxHeapBasic(t *testing.T) {
	h := NewMax[int32]()
	h.Push(10, 1)
	h.Push(11, 5)
	h.Push(12, 3)
	want := []int32{11, 12, 10}
	for _, w := range want {
		got, _, _ := h.Pop()
		if got != w {
			t.Fatalf("Pop = %d, want %d", got, w)
		}
	}
}

func TestPushExistingUpdates(t *testing.T) {
	h := NewMin[int32]()
	h.Push(7, 10)
	h.Push(8, 5)
	h.Push(7, 1) // update, not duplicate
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	got, prio, _ := h.Pop()
	if got != 7 || prio != 1 {
		t.Fatalf("Pop = (%d,%v), want (7,1)", got, prio)
	}
}

func TestUpdate(t *testing.T) {
	h := NewMin[int32]()
	h.Push(1, 1)
	h.Push(2, 2)
	h.Push(3, 3)
	if !h.Update(3, 0.5) {
		t.Fatal("Update of queued item returned false")
	}
	if h.Update(99, 1) {
		t.Fatal("Update of missing item returned true")
	}
	got, _, _ := h.Pop()
	if got != 3 {
		t.Fatalf("after decrease-key Pop = %d, want 3", got)
	}
	// Increase key as well.
	h.Update(1, 10)
	got, _, _ = h.Pop()
	if got != 2 {
		t.Fatalf("after increase-key Pop = %d, want 2", got)
	}
}

func TestImprove(t *testing.T) {
	min := NewMin[int32]()
	min.Push(1, 5)
	if min.Improve(1, 7) {
		t.Fatal("min-heap Improve to worse priority reported update")
	}
	if p, _ := min.Priority(1); p != 5 {
		t.Fatalf("priority changed to %v, want 5", p)
	}
	if !min.Improve(1, 2) {
		t.Fatal("min-heap Improve to better priority reported no update")
	}
	if !min.Improve(42, 9) {
		t.Fatal("Improve of absent item should insert and report true")
	}

	max := NewMax[int32]()
	max.Push(1, 5)
	if max.Improve(1, 2) {
		t.Fatal("max-heap Improve to worse priority reported update")
	}
	if !max.Improve(1, 9) {
		t.Fatal("max-heap Improve to better priority reported no update")
	}
	if p, _ := max.Priority(1); p != 9 {
		t.Fatalf("priority = %v, want 9", p)
	}
}

func TestRemove(t *testing.T) {
	h := NewMin[int32]()
	for i := int32(0); i < 10; i++ {
		h.Push(i, float64(10-i))
	}
	if !h.Remove(5) {
		t.Fatal("Remove of queued item returned false")
	}
	if h.Remove(5) {
		t.Fatal("Remove of already-removed item returned true")
	}
	if h.Contains(5) {
		t.Fatal("Contains(5) after Remove")
	}
	var got []int32
	for h.Len() > 0 {
		v, _, _ := h.Pop()
		got = append(got, v)
	}
	want := []int32{9, 8, 7, 6, 4, 3, 2, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("drained %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestClear(t *testing.T) {
	h := NewMax[int32]()
	h.Push(1, 1)
	h.Push(2, 2)
	h.Clear()
	if h.Len() != 0 || h.Contains(1) {
		t.Fatal("Clear did not empty the heap")
	}
	h.Push(3, 3)
	if v, _, _ := h.Pop(); v != 3 {
		t.Fatal("heap unusable after Clear")
	}
}

func TestPriorityLookup(t *testing.T) {
	h := NewMin[int32]()
	h.Push(4, 2.5)
	if p, ok := h.Priority(4); !ok || p != 2.5 {
		t.Fatalf("Priority(4) = (%v,%v), want (2.5,true)", p, ok)
	}
	if _, ok := h.Priority(5); ok {
		t.Fatal("Priority of missing item reported ok")
	}
}

// Property: popping everything yields priorities in sorted order, whatever
// mixture of pushes and updates was applied.
func TestQuickSortedDrain(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewMin[int32]()
		ref := make(map[int32]float64)
		for i := 0; i < int(n)+1; i++ {
			item := int32(rng.Intn(20))
			prio := float64(rng.Intn(1000))
			switch rng.Intn(3) {
			case 0:
				h.Push(item, prio)
				ref[item] = prio
			case 1:
				if h.Update(item, prio) {
					ref[item] = prio
				}
			case 2:
				if h.Remove(item) {
					delete(ref, item)
				}
			}
		}
		if h.Len() != len(ref) {
			return false
		}
		var want []float64
		for _, p := range ref {
			want = append(want, p)
		}
		sort.Float64s(want)
		for _, w := range want {
			item, p, ok := h.Pop()
			if !ok || p != w || ref[item] != p {
				return false
			}
		}
		_, _, ok := h.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: position table stays consistent — every queued item's Priority
// agrees with what Pop eventually yields, under random churn.
func TestQuickPositionConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewMax[int32]()
		for i := 0; i < 200; i++ {
			op := rng.Intn(4)
			item := int32(rng.Intn(30))
			switch op {
			case 0, 1:
				h.Push(item, rng.Float64())
			case 2:
				h.Improve(item, rng.Float64())
			case 3:
				h.Pop()
			}
			if item2, prio, ok := h.Peek(); ok {
				got, ok2 := h.Priority(item2)
				if !ok2 || got != prio {
					return false
				}
			}
		}
		// Drain and verify monotone non-increasing priorities.
		prev := 2.0
		for {
			_, p, ok := h.Pop()
			if !ok {
				break
			}
			if p > prev {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := NewMin[int32]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Push(int32(i%4096), rng.Float64())
		if h.Len() > 2048 {
			h.Pop()
		}
	}
}

func BenchmarkHeapImprove(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := NewMax[int32]()
	for i := 0; i < 2048; i++ {
		h.Push(int32(i), rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Improve(int32(i%2048), rng.Float64())
	}
}

// refHeap is the comparator-based, map-indexed heap the dense Heap
// replaced. It is kept as the reference for TestDenseMatchesReference:
// the search algorithms' tie-breaking (and so every golden answer order)
// depends on the exact pop sequence, which the dense heap must reproduce.
type refHeap[T comparable] struct {
	items []T
	prio  []float64
	pos   map[T]int
	less  func(a, b float64) bool
}

func newRefMin[T comparable]() *refHeap[T] {
	return &refHeap[T]{pos: make(map[T]int), less: func(a, b float64) bool { return a < b }}
}

func newRefMax[T comparable]() *refHeap[T] {
	return &refHeap[T]{pos: make(map[T]int), less: func(a, b float64) bool { return a > b }}
}

func (h *refHeap[T]) Len() int { return len(h.items) }

func (h *refHeap[T]) Contains(item T) bool {
	_, ok := h.pos[item]
	return ok
}

func (h *refHeap[T]) Priority(item T) (float64, bool) {
	i, ok := h.pos[item]
	if !ok {
		return 0, false
	}
	return h.prio[i], true
}

func (h *refHeap[T]) Push(item T, priority float64) {
	if i, ok := h.pos[item]; ok {
		h.update(i, priority)
		return
	}
	h.items = append(h.items, item)
	h.prio = append(h.prio, priority)
	i := len(h.items) - 1
	h.pos[item] = i
	h.up(i)
}

func (h *refHeap[T]) PushIfAbsent(item T, priority float64) bool {
	if _, ok := h.pos[item]; ok {
		return false
	}
	h.Push(item, priority)
	return true
}

func (h *refHeap[T]) Update(item T, priority float64) bool {
	i, ok := h.pos[item]
	if !ok {
		return false
	}
	h.update(i, priority)
	return true
}

func (h *refHeap[T]) Improve(item T, priority float64) bool {
	i, ok := h.pos[item]
	if !ok {
		h.Push(item, priority)
		return true
	}
	if !h.less(priority, h.prio[i]) {
		return false
	}
	h.update(i, priority)
	return true
}

func (h *refHeap[T]) Bump(item T, priority float64) bool {
	i, ok := h.pos[item]
	if !ok || !h.less(priority, h.prio[i]) {
		return false
	}
	h.update(i, priority)
	return true
}

func (h *refHeap[T]) Peek() (item T, priority float64, ok bool) {
	if len(h.items) == 0 {
		return item, 0, false
	}
	return h.items[0], h.prio[0], true
}

func (h *refHeap[T]) Pop() (item T, priority float64, ok bool) {
	if len(h.items) == 0 {
		return item, 0, false
	}
	item, priority = h.items[0], h.prio[0]
	h.swap(0, len(h.items)-1)
	h.items = h.items[:len(h.items)-1]
	h.prio = h.prio[:len(h.prio)-1]
	delete(h.pos, item)
	if len(h.items) > 0 {
		h.down(0)
	}
	return item, priority, true
}

func (h *refHeap[T]) Remove(item T) bool {
	i, ok := h.pos[item]
	if !ok {
		return false
	}
	last := len(h.items) - 1
	h.swap(i, last)
	h.items = h.items[:last]
	h.prio = h.prio[:last]
	delete(h.pos, item)
	if i < last {
		h.down(i)
		h.up(i)
	}
	return true
}

func (h *refHeap[T]) Clear() {
	h.items = h.items[:0]
	h.prio = h.prio[:0]
	clear(h.pos)
}

func (h *refHeap[T]) update(i int, priority float64) {
	old := h.prio[i]
	h.prio[i] = priority
	if h.less(priority, old) {
		h.up(i)
	} else {
		h.down(i)
	}
}

func (h *refHeap[T]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.pos[h.items[i]] = i
	h.pos[h.items[j]] = j
}

func (h *refHeap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.prio[i], h.prio[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *refHeap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(h.prio[l], h.prio[best]) {
			best = l
		}
		if r < n && h.less(h.prio[r], h.prio[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// TestDenseMatchesReference drives the dense heap and the map-backed
// reference through the same seeded random operation sequences and
// requires identical results from every call — including the order in
// which equal priorities pop and the sign of returned zeros. Priorities
// come from a small pool so ties are frequent, and include ±0 and ±Inf.
func TestDenseMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pool := []float64{0, negZero, 1, 1, 2, 2.5, -3, 7, math.Inf(1), math.Inf(-1), 1e-300, 0.1 + 0.2}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := seed%2 == 0
		h, ref := NewMin[int32](), newRefMin[int32]()
		if max {
			h, ref = NewMax[int32](), newRefMax[int32]()
		}
		fail := func(step int, op string, got, want any) {
			t.Helper()
			t.Fatalf("seed %d (max=%v) step %d %s: dense %v, reference %v", seed, max, step, op, got, want)
		}
		// A wide item range on some seeds exercises position-table growth.
		span := 24
		if seed%5 == 0 {
			span = 5000
		}
		for step := 0; step < 600; step++ {
			item := int32(rng.Intn(span))
			p := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(20); {
			case op < 5:
				h.Push(item, p)
				ref.Push(item, p)
			case op < 7:
				if a, b := h.PushIfAbsent(item, p), ref.PushIfAbsent(item, p); a != b {
					fail(step, "PushIfAbsent", a, b)
				}
			case op < 9:
				if a, b := h.Improve(item, p), ref.Improve(item, p); a != b {
					fail(step, "Improve", a, b)
				}
			case op < 11:
				if a, b := h.Bump(item, p), ref.Bump(item, p); a != b {
					fail(step, "Bump", a, b)
				}
			case op < 12:
				if a, b := h.Update(item, p), ref.Update(item, p); a != b {
					fail(step, "Update", a, b)
				}
			case op < 16:
				i1, p1, ok1 := h.Pop()
				i2, p2, ok2 := ref.Pop()
				if i1 != i2 || !same(p1, p2) || ok1 != ok2 {
					fail(step, "Pop", []any{i1, p1, ok1}, []any{i2, p2, ok2})
				}
			case op < 18:
				if a, b := h.Remove(item), ref.Remove(item); a != b {
					fail(step, "Remove", a, b)
				}
			case op < 19:
				p1, ok1 := h.Priority(item)
				p2, ok2 := ref.Priority(item)
				if !same(p1, p2) || ok1 != ok2 || h.Contains(item) != ref.Contains(item) {
					fail(step, "Priority", []any{p1, ok1}, []any{p2, ok2})
				}
			default:
				if rng.Intn(8) == 0 {
					h.Clear()
					ref.Clear()
				}
			}
			if h.Len() != ref.Len() {
				fail(step, "Len", h.Len(), ref.Len())
			}
			i1, p1, ok1 := h.Peek()
			i2, p2, ok2 := ref.Peek()
			if i1 != i2 || !same(p1, p2) || ok1 != ok2 {
				fail(step, "Peek", []any{i1, p1, ok1}, []any{i2, p2, ok2})
			}
		}
		for step := 600; ; step++ {
			i1, p1, ok1 := h.Pop()
			i2, p2, ok2 := ref.Pop()
			if i1 != i2 || !same(p1, p2) || ok1 != ok2 {
				fail(step, "drain Pop", []any{i1, p1, ok1}, []any{i2, p2, ok2})
			}
			if !ok1 {
				break
			}
		}
	}
}
