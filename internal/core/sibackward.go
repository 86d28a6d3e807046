package core

import (
	"context"
	"math"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// SIBackward runs single-iterator Backward expanding search (§4.6): all
// per-keyword-node Dijkstra iterators of the original Backward search are
// merged into one backward iterator, prioritized purely by distance from
// the nearest keyword node — no forward iterator and no spreading
// activation. The paper introduces it to separate the effect of merging
// iterators from the other effects of Bidirectional search.
//
// ctx bounds the search exactly as in Bidirectional: on expiry the partial
// top-k accumulated so far is returned with Stats.Truncated set.
func SIBackward(ctx context.Context, g graph.View, keywords [][]graph.NodeID, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := validateInput(g, keywords); err != nil {
		return nil, err
	}
	sc := newSearchContext(orBackground(ctx), g, keywords, opts)
	defer sc.putScratch()
	if anyEmptyKeyword(keywords) || sc.expired() {
		return sc.finishResult(), nil
	}

	s := &siSearch{
		searchContext: sc,
		qin:           sc.scr.qmin,
		attach:        sc.scr.workMin,
	}
	s.seed()
	s.run()
	return sc.finishResult(), nil
}

type siSearch struct {
	*searchContext
	qin    *pqueue.Heap[graph.NodeID]
	attach *pqueue.Heap[graph.NodeID]
}

func (s *siSearch) seed() {
	for _, u := range s.seedNodes() {
		st := s.st(u)
		st.depth = 0
		s.qin.Push(u, s.minDist(st))
		s.stats.NodesTouched++
		s.maybeEmit(u)
	}
}

// minDist is the queue priority: the smallest known distance to any
// keyword.
func (s *siSearch) minDist(st *nodeState) float64 {
	best := math.Inf(1)
	for i := 0; i < s.nk; i++ {
		if st.dist[i] < best {
			best = st.dist[i]
		}
	}
	return best
}

func (s *siSearch) run() {
	const boundEvery = 32
	sinceBound := 0
	for s.qin.Len() > 0 {
		if s.out.full() {
			return
		}
		if s.opts.MaxNodes > 0 && s.stats.NodesExplored >= s.opts.MaxNodes {
			s.stats.BudgetExhausted = true
			break
		}
		if s.cancelled() {
			break
		}
		v, _, _ := s.qin.Pop()
		s.expand(v)
		sinceBound++
		if sinceBound >= boundEvery {
			sinceBound = 0
			score, edge := s.upperBound()
			if s.lazy {
				if s.drainCands(edge, false) {
					return
				}
			} else {
				s.flushEmits()
				if s.out.drain(score, edge) {
					return
				}
			}
		}
	}
	if s.lazy {
		s.drainCands(0, true)
	} else {
		s.flushEmits()
		s.out.flush()
	}
}

// expand pops v and relaxes its incoming combined edges, exactly like the
// Bidirectional incoming iterator but without activation.
func (s *siSearch) expand(v graph.NodeID) {
	s.stats.NodesExplored++
	s.tick()
	sv := s.st(v)
	sv.inXin = true
	s.maybeEmit(v)

	if int(sv.depth) >= s.opts.DMax {
		return
	}
	for _, h := range s.g.Neighbors(v) {
		if !s.allowEdge(h) {
			continue
		}
		u := h.To
		s.stats.EdgesRelaxed++
		su := s.st(u)
		s.addParent(sv, u, h.WIn)
		improved := false
		for i := 0; i < s.nk; i++ {
			if d := h.WIn + sv.dist[i]; d < su.dist[i]-1e-15 {
				su.dist[i] = d
				su.sp[i] = v
				s.noteDist(u, su, i)
				improved = true
			}
		}
		if improved {
			s.maybeEmit(u)
			s.attachPropagate(u)
		}
		if !su.inXin {
			if su.depth < 0 {
				su.depth = sv.depth + 1
			}
			if s.qin.PushIfAbsent(u, s.minDist(su)) {
				s.stats.NodesTouched++
			} else {
				s.qin.Bump(u, s.minDist(su))
			}
		}
	}
}

// attachPropagate propagates distance improvements to explored parents
// (Attach), updating queue priorities as it goes.
func (s *siSearch) attachPropagate(u graph.NodeID) {
	if s.attach == nil {
		s.attach = pqueue.NewMin[graph.NodeID]()
	}
	work := s.attach
	work.Clear()
	work.Push(u, s.distSum(s.st(u)))
	for work.Len() > 0 {
		v, _, _ := work.Pop()
		sv := s.st(v)
		for p := sv.firstParent; p != 0; {
			pe := s.parent(p)
			p = pe.next
			sp, ok := s.peekState(pe.node)
			if !ok {
				continue
			}
			improved := false
			for i := 0; i < s.nk; i++ {
				if d := pe.w + sv.dist[i]; d < sp.dist[i]-1e-15 {
					sp.dist[i] = d
					sp.sp[i] = v
					s.noteDist(pe.node, sp, i)
					improved = true
				}
			}
			if improved {
				s.qin.Bump(pe.node, s.minDist(sp))
				s.maybeEmit(pe.node)
				work.Push(pe.node, s.distSum(sp))
			}
		}
	}
}

// upperBound mirrors the Bidirectional bound (§4.5) over the single
// backward frontier.
func (s *siSearch) upperBound() (score, edge float64) {
	var mbuf [MaxKeywords]float64
	m := mbuf[:s.nk]
	for i := range m {
		m[i] = s.frontierMin(i)
	}
	h := 0.0
	for i := 0; i < s.nk; i++ {
		if math.IsInf(m[i], 1) {
			if s.qin.Len() == 0 {
				return 0, math.Inf(1)
			}
			continue
		}
		h += m[i]
	}
	if s.opts.StrictBound {
		best := math.Inf(1)
		for _, u := range s.touched() {
			st := s.state[u]
			sum := 0.0
			for i := 0; i < s.nk; i++ {
				sum += math.Min(st.dist[i], m[i])
			}
			if sum < best {
				best = sum
			}
		}
		if best < h {
			h = best
		}
	}
	return scoreUpperBound(s.g, h, s.nk, s.opts.Lambda), h
}
