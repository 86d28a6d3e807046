package core

import (
	"sync"
	"sync/atomic"
)

// Parallel MI-Backward production.
//
// The per-keyword-node Dijkstra iterators of Backward search are
// independent by construction (§3): an iterator's entire mutable state —
// its frontier and its per-node records — is iterator-local (the node →
// record lookup table is per worker, shared only by the iterators that
// worker owns), and the only cross-iterator coupling is the global
// schedule (which iterator settles next) and the answer emission it
// triggers. Parallel mode exploits that:
// worker goroutines run the iterators ahead speculatively, streaming settle
// events through per-iterator bounded buffers, while the coordinator
// (miSearch.run) consumes events in exactly the serial schedule order —
// the same sched heap, fed the same priorities in the same sequence. Every
// globally visible effect (reach recording, emission, output-heap drains,
// Stats) happens on the coordinator in that order, so the results are
// bit-identical to Workers == 0; differential_test.go enforces this on
// randomized graphs, and the golden pins tie both modes to the pre-refactor
// outputs.
//
// Backpressure and shutdown: buffers bound speculation, so an early stop
// (k answers out, MaxNodes, cancellation) wastes at most
// batch*(miBatchChans+1) settles per iterator. Workers never consult the
// search context — cancellation is observed by the coordinator at the
// same amortized cadence as in serial mode (identical Truncated prefixes),
// which then closes done to release the producers.

const (
	// miMaxBatch/miMinBatch bound how many settle events a worker packs
	// into one channel send. Batching amortizes channel synchronization
	// without affecting the merge order (the coordinator unpacks in
	// sequence), but the buffered lookahead is also the speculation the
	// merge may never consume — so the batch size adapts: deep lookahead
	// when the query has few iterators (each is consumed often), shallow
	// when it has thousands (frequent-term origins, where deep buffers
	// would multiply wasted work on budget-bounded searches).
	miMaxBatch = 16
	miMinBatch = 4
	// miBatchChans is the per-iterator channel capacity in batches.
	miBatchChans = 1
)

// miSpecBudget is the target total speculative lookahead in events across
// all iterators (batch = clamp(miSpecBudget/iters, min, max)). A variable
// so tests can lower it to drive small graphs through the shallow-batch
// path.
var miSpecBudget = 4096

// miParallel carries the producer-side plumbing of one parallel search.
type miParallel struct {
	nw    int
	batch int
	// chans[idx] streams iterator idx's event batches, closed at
	// exhaustion. Only the owning worker sends on it, so a send after a
	// successful capacity check never blocks.
	chans []chan []miEvent
	// pending/cursor hold the coordinator's partially consumed batch.
	pending [][]miEvent
	cursor  []int
	// consumed[idx] counts batches the coordinator has received from
	// chans[idx]. Workers judge buffer capacity as sent-consumed rather
	// than len(chan): an atomic load is guaranteed fresh, where a plain
	// len read of a channel the coordinator just drained has no
	// happens-before edge and could (per the memory model) stay stale
	// forever, wedging a worker into sleeping on a full-looking buffer.
	consumed []atomic.Int64
	// wake[w] (capacity 1) tells worker w that buffer space opened up.
	// The coordinator bumps consumed before pinging, so a worker that
	// finds a wake token pending is guaranteed to see the freed slot on
	// its rescan — a dropped ping (token already present) can never be a
	// lost wakeup.
	wake []chan struct{}
	// done broadcasts coordinator shutdown.
	done chan struct{}
	wg   sync.WaitGroup
}

// runParallel runs the merge loop against worker-produced event streams.
// Iterator ownership passes to the workers here: the coordinator must not
// touch m.iters afterwards (it reads events only).
func (m *miSearch) runParallel(workers int) {
	if workers > len(m.iters) {
		workers = len(m.iters)
	}
	batch := miSpecBudget / len(m.iters)
	if batch > miMaxBatch {
		batch = miMaxBatch
	}
	if batch < miMinBatch {
		batch = miMinBatch
	}
	p := &miParallel{
		nw:       workers,
		batch:    batch,
		chans:    make([]chan []miEvent, len(m.iters)),
		pending:  make([][]miEvent, len(m.iters)),
		cursor:   make([]int, len(m.iters)),
		consumed: make([]atomic.Int64, len(m.iters)),
		wake:     make([]chan struct{}, workers),
		done:     make(chan struct{}),
	}
	for i := range p.chans {
		p.chans[i] = make(chan []miEvent, miBatchChans)
	}
	m.stats.WorkersUsed = workers
	m.tabs = m.scr.tables(workers)
	for w := 0; w < workers; w++ {
		p.wake[w] = make(chan struct{}, 1)
		p.wg.Add(1)
		go m.produce(p, w)
	}
	m.source = p.next
	m.run()
	close(p.done)
	p.wg.Wait()
}

// next is the parallel event source: it serves iterator idx's stream in
// production order, refilling from the channel batch by batch.
func (p *miParallel) next(idx int) (miEvent, bool) {
	if p.cursor[idx] >= len(p.pending[idx]) {
		b, ok := <-p.chans[idx]
		if !ok {
			return miEvent{}, false
		}
		p.pending[idx], p.cursor[idx] = b, 0
		// Publish the freed slot, then wake the producing worker. Order
		// matters: the bump must be visible before any wake token the
		// worker might consume instead of this (possibly dropped) ping.
		p.consumed[idx].Add(1)
		select {
		case p.wake[idx%p.nw] <- struct{}{}:
		default:
		}
	}
	ev := p.pending[idx][p.cursor[idx]]
	p.cursor[idx]++
	return ev, true
}

// produce is one worker: it owns the iterators idx ≡ w (mod nw) and keeps
// each one's buffer full, sleeping on wake when every owned buffer is at
// capacity. Workers skip full buffers instead of blocking on them —
// blocking on one iterator while the coordinator waits for another of the
// same worker would deadlock the merge.
func (m *miSearch) produce(p *miParallel, w int) {
	defer p.wg.Done()
	type ownedIter struct {
		idx  int
		it   *miIterator
		sent int64
	}
	// The worker's iterators share its own lookup table.
	tab := m.tabs[w]
	var owned []ownedIter
	for idx := w; idx < len(m.iters); idx += p.nw {
		owned = append(owned, ownedIter{idx: idx, it: m.iters[idx]})
	}
	for {
		progressed := false
		// Iterate by index over a slice that swap-deletes exhausted
		// entries: frequent-term queries seed thousands of iterators most
		// of which die within a few settles, and rescanning corpses on
		// every wake-up would dominate the producer loop.
		for i := 0; i < len(owned); {
			o := &owned[i]
			// Capacity is judged as sent-consumed (see miParallel.consumed
			// for why not len(chan)). Only this goroutine sends on
			// chans[o.idx], so a send after the capacity check cannot
			// block; the done case is shutdown insurance only.
			for o.sent-p.consumed[o.idx].Load() < miBatchChans {
				batch := make([]miEvent, 0, p.batch)
				exhausted := false
				for len(batch) < p.batch {
					var ev miEvent
					if !o.it.advance(m.g, &m.opts, tab, &ev) {
						exhausted = true
						break
					}
					batch = append(batch, ev)
				}
				if len(batch) > 0 {
					select {
					case p.chans[o.idx] <- batch:
						o.sent++
						progressed = true
					case <-p.done:
						return
					}
				}
				if exhausted {
					close(p.chans[o.idx])
					o.it = nil
					break
				}
			}
			if o.it == nil {
				owned[i] = owned[len(owned)-1]
				owned = owned[:len(owned)-1]
				continue
			}
			i++
		}
		if len(owned) == 0 {
			return
		}
		if !progressed {
			select {
			case <-p.wake[w]:
			case <-p.done:
				return
			}
		}
	}
}
