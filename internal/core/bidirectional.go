package core

import (
	"context"
	"math"

	"banks/internal/graph"
	"banks/internal/pqueue"
)

// Bidirectional runs the paper's Bidirectional expanding search (§4,
// Figure 3): a single incoming (backward) iterator seeded at all keyword
// nodes and a concurrent outgoing (forward) iterator over every node the
// incoming iterator reaches (each such node is a potential answer root).
// Both frontiers are prioritized by spreading activation (§4.3), so
// iterators with small origin sets and less bushy subtrees are expanded
// preferentially, and forward search connects high-activation potential
// roots to frequent keywords cheaply.
//
// ctx bounds the search: on cancellation or deadline expiry the loop stops
// at the next amortized check, flushes the answers generated so far as a
// partial top-k, and returns them with Stats.Truncated set (no error).
func Bidirectional(ctx context.Context, g graph.View, keywords [][]graph.NodeID, opts Options) (*Result, error) {
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

	b := &bidirSearch{
		searchContext: sc,
		qin:           sc.scr.qmax,
		qout:          sc.scr.qmax2,
		activate:      sc.scr.workMax,
		attach:        sc.scr.workMin,
	}
	b.seed()
	b.run()
	return sc.finishResult(), nil
}

type bidirSearch struct {
	*searchContext
	qin  *pqueue.Heap[graph.NodeID]
	qout *pqueue.Heap[graph.NodeID]
	// activate is the reusable work heap for best-first activation
	// propagation (Figure 3's Activate).
	activate *pqueue.Heap[graph.NodeID]
	// attach is the reusable work heap for best-first distance propagation
	// (Figure 3's Attach).
	attach *pqueue.Heap[graph.NodeID]
}

// seed inserts every keyword node into Qin with initial activation
// a_{u,i} = prestige(u)/|Sᵢ| (§4.3 eq. 1) and emits degenerate single-node
// answers for nodes that already cover every keyword.
func (b *bidirSearch) seed() {
	for i, si := range b.kw {
		sz := float64(len(si))
		for _, u := range si {
			s := b.st(u)
			s.depth = 0
			a := b.g.Prestige(u) / sz
			if b.opts.ActivationSum {
				s.act[i] += a
			} else if a > s.act[i] {
				s.act[i] = a
			}
		}
	}
	for _, u := range b.seedNodes() {
		s := b.st(u)
		b.qin.Push(u, totalActivation(s))
		b.stats.NodesTouched++
		b.maybeEmit(u)
	}
}

func (b *bidirSearch) run() {
	const boundEvery = 32
	sinceBound := 0
	for b.qin.Len() > 0 || b.qout.Len() > 0 {
		if b.out.full() {
			return
		}
		if b.opts.MaxNodes > 0 && b.stats.NodesExplored >= b.opts.MaxNodes {
			b.stats.BudgetExhausted = true
			break
		}
		if b.cancelled() {
			break
		}
		// Schedule whichever iterator holds the higher-activation node
		// (Figure 3 lines 5–23).
		_, ain, okIn := b.qin.Peek()
		_, aout, okOut := b.qout.Peek()
		switch {
		case okIn && (!okOut || ain >= aout):
			v, _, _ := b.qin.Pop()
			b.expandIncoming(v)
		case okOut:
			u, _, _ := b.qout.Pop()
			b.expandOutgoing(u)
		}
		sinceBound++
		if sinceBound >= boundEvery {
			sinceBound = 0
			score, edge := b.upperBound()
			if b.lazy {
				if b.drainCands(edge, false) {
					return
				}
			} else {
				b.flushEmits()
				if b.out.drain(score, edge) {
					return
				}
			}
		}
	}
	if b.lazy {
		b.drainCands(0, true)
	} else {
		b.flushEmits()
		b.out.flush()
	}
}

// expandIncoming pops v from the backward frontier: explores incoming
// combined edges (u,v), propagating distances and activation to the
// predecessors u, and registers v with the outgoing iterator as a
// potential answer root.
func (b *bidirSearch) expandIncoming(v graph.NodeID) {
	b.stats.NodesExplored++
	b.tick()
	sv := b.st(v)
	sv.inXin = true
	b.maybeEmit(v)

	if int(sv.depth) < b.opts.DMax {
		invSum := b.invSumIn(v, sv)
		for _, h := range b.g.Neighbors(v) {
			if !b.allowEdge(h) {
				continue
			}
			u := h.To
			// Combined in-edge u→v has weight h.WIn.
			su := b.st(u)
			prio := b.edgePriority(h)
			share := 0.0
			if invSum > 0 {
				// v spreads activation to its in-neighbour u, divided in
				// inverse proportion to the in-edge weights (§4.3).
				share = (1 / h.WIn) / invSum * prio
			}
			b.exploreEdge(u, su, v, sv, h.WIn, share, true)
			if !su.inXin {
				if su.depth < 0 {
					su.depth = sv.depth + 1
				}
				if b.qin.PushIfAbsent(u, totalActivation(su)) {
					b.stats.NodesTouched++
				}
			}
		}
	}
	if !sv.inXout && b.qout.PushIfAbsent(v, totalActivation(sv)) {
		b.stats.NodesTouched++
	}
}

// expandOutgoing pops u from the forward frontier: explores outgoing
// combined edges (u,v), pulling distance information from v back into u
// and pushing activation forward into v.
func (b *bidirSearch) expandOutgoing(u graph.NodeID) {
	b.stats.NodesExplored++
	b.tick()
	su := b.st(u)
	su.inXout = true
	b.maybeEmit(u)

	if int(su.depth) >= b.opts.DMax {
		return
	}
	invSum := b.invSumOut(u, su)
	for _, h := range b.g.Neighbors(u) {
		if !b.allowEdge(h) {
			continue
		}
		sv := b.st(h.To)
		prio := b.edgePriority(h)
		share := 0.0
		if invSum > 0 {
			// u spreads activation forward to v across out-edges.
			share = (1 / h.WOut) / invSum * prio
		}
		b.exploreEdge(u, su, h.To, sv, h.WOut, share, false)
		if !sv.inXout {
			if sv.depth < 0 {
				sv.depth = su.depth + 1
			}
			if b.qout.PushIfAbsent(h.To, totalActivation(sv)) {
				b.stats.NodesTouched++
			}
		}
	}
}

// exploreEdge is Figure 3's ExploreEdge(u,v): u is the predecessor, v the
// successor of combined edge u→v with weight w. Distance information flows
// v→u (u gains paths to keywords through v); activation flows backward
// (v spreads to u, backward==true) or forward (u spreads to v) depending
// on the expanding iterator. share is the edge's activation fraction
// (1/w)/Σ(1/w')·priority, computed by the caller; 0 means no spreading
// (the invSum ≤ 0 case, where a zero factor could not change any
// activation).
func (b *bidirSearch) exploreEdge(u graph.NodeID, su *nodeState, v graph.NodeID, sv *nodeState, w, share float64, backward bool) {
	b.stats.EdgesRelaxed++

	// Record u as an explored parent of v (P_v): distance improvements at
	// v must later propagate to u (§4.2.2).
	b.addParent(sv, u, w)

	improvedDist := false
	for i := 0; i < b.nk; i++ {
		if d := w + sv.dist[i]; d < su.dist[i]-1e-15 {
			su.dist[i] = d
			su.sp[i] = v
			b.noteDist(u, su, i)
			improvedDist = true
		}
	}
	if improvedDist {
		b.maybeEmit(u)
		b.attachPropagate(u)
	}

	if share > 0 {
		mu := b.opts.Mu
		if backward {
			b.receiveActivation(u, su, sv, mu*share, true)
		} else {
			b.receiveActivation(v, sv, su, mu*share, false)
		}
	}
}

// activationRespreadGain is the minimum relative activation improvement
// that re-triggers propagation through already-expanded nodes. Activation
// only steers search order (never correctness), so re-spreading on
// marginal changes would buy nothing while rescanning hub neighbourhoods;
// the paper's Activate procedure leaves this engineering threshold open.
const activationRespreadGain = 1.10

// receiveActivation updates dst's per-keyword activation with the portion
// arriving from src, re-prioritizes dst in the frontier queues, and
// propagates onward if dst has already spread before and the change is
// substantial (Figure 3's Activate).
func (b *bidirSearch) receiveActivation(dst graph.NodeID, sdst, ssrc *nodeState, factor float64, backward bool) {
	improved := false
	big := false
	for i := 0; i < b.nk; i++ {
		a := ssrc.act[i] * factor
		if a <= 0 {
			continue
		}
		if b.opts.ActivationSum {
			sdst.act[i] += a
			improved = true
			big = true
		} else if a > sdst.act[i] {
			if a > sdst.act[i]*activationRespreadGain {
				big = true
			}
			sdst.act[i] = a
			improved = true
		}
	}
	if !improved {
		return
	}
	total := totalActivation(sdst)
	b.qin.Bump(dst, total)  // no-op if not queued
	b.qout.Bump(dst, total) // no-op if not queued
	_ = backward
	if big && (sdst.inXin || sdst.inXout) {
		b.activatePropagate(dst)
	}
}

// activatePropagate re-spreads improved activation from nodes that have
// already been expanded, best-first (Figure 3's Activate). Attenuation µ
// guarantees geometric decay, so propagation terminates quickly.
func (b *bidirSearch) activatePropagate(from graph.NodeID) {
	if b.activate == nil {
		b.activate = pqueue.NewMax[graph.NodeID]()
	}
	work := b.activate
	work.Clear()
	work.Push(from, totalActivation(b.st(from)))
	for work.Len() > 0 {
		v, _, _ := work.Pop()
		sv := b.st(v)
		mu := b.opts.Mu
		if sv.inXin {
			invSum := b.invSumIn(v, sv)
			if invSum > 0 {
				for _, h := range b.g.Neighbors(v) {
					if !b.allowEdge(h) {
						continue
					}
					share := (1 / h.WIn) / invSum * b.edgePriority(h)
					b.respread(work, h.To, sv, mu*share)
				}
			}
		}
		if sv.inXout {
			invSum := b.invSumOut(v, sv)
			if invSum > 0 {
				for _, h := range b.g.Neighbors(v) {
					if !b.allowEdge(h) {
						continue
					}
					share := (1 / h.WOut) / invSum * b.edgePriority(h)
					b.respread(work, h.To, sv, mu*share)
				}
			}
		}
	}
}

// respread applies one hop of re-spreading during activatePropagate.
func (b *bidirSearch) respread(work *pqueue.Heap[graph.NodeID], dst graph.NodeID, ssrc *nodeState, factor float64) {
	sdst, ok := b.peekState(dst)
	if !ok {
		return // never touched: will receive activation when explored
	}
	improved := false
	big := false
	for i := 0; i < b.nk; i++ {
		a := ssrc.act[i] * factor
		if a > sdst.act[i] {
			if a > sdst.act[i]*activationRespreadGain {
				big = true
			}
			sdst.act[i] = a
			improved = true
		}
	}
	if !improved {
		return
	}
	total := totalActivation(sdst)
	b.qin.Bump(dst, total)
	b.qout.Bump(dst, total)
	if big && (sdst.inXin || sdst.inXout) {
		work.Push(dst, total)
	}
}

// attachPropagate propagates improved distances at u to its explored
// parents, best-first (Figure 3's Attach). Each improvement may complete
// ancestors, triggering emission.
func (b *bidirSearch) attachPropagate(u graph.NodeID) {
	if b.attach == nil {
		b.attach = pqueue.NewMin[graph.NodeID]()
	}
	work := b.attach
	work.Clear()
	work.Push(u, b.distSum(b.st(u)))
	for work.Len() > 0 {
		v, _, _ := work.Pop()
		sv := b.st(v)
		for p := sv.firstParent; p != 0; {
			pe := b.parent(p)
			p = pe.next
			sp, ok := b.peekState(pe.node)
			if !ok {
				continue
			}
			improved := false
			for i := 0; i < b.nk; i++ {
				if d := pe.w + sv.dist[i]; d < sp.dist[i]-1e-15 {
					sp.dist[i] = d
					sp.sp[i] = v
					b.noteDist(pe.node, sp, i)
					improved = true
				}
			}
			if improved {
				b.maybeEmit(pe.node)
				work.Push(pe.node, b.distSum(sp))
			}
		}
	}
}

// upperBound computes the §4.5 bounds on answers not yet generated. mᵢ is
// the minimum dist_{u,i} over the backward frontier; the best future
// aggregate edge score is edge = Σᵢ mᵢ (h in the paper), and the score
// bound combines it with the maximum node prestige. In strict mode the
// bound additionally considers every seen node's partial distances
// (Σᵢ min(dist_{u,i}, mᵢ)), NRA-style.
func (b *bidirSearch) upperBound() (score, edge float64) {
	var mbuf [MaxKeywords]float64
	m := mbuf[:b.nk]
	for i := range m {
		m[i] = b.frontierMin(i)
	}
	h := 0.0
	for i := 0; i < b.nk; i++ {
		if math.IsInf(m[i], 1) {
			// No frontier knowledge for keyword i: fall back to the
			// coarser overall-frontier minimum (§4.5); if the frontier is
			// empty no better answer can appear at all.
			if b.qin.Len() == 0 && b.qout.Len() == 0 {
				return 0, math.Inf(1)
			}
			continue
		}
		h += m[i]
	}
	if b.opts.StrictBound {
		best := math.Inf(1)
		for _, u := range b.touched() {
			s := b.state[u]
			sum := 0.0
			for i := 0; i < b.nk; i++ {
				sum += math.Min(s.dist[i], m[i])
			}
			if sum < best {
				best = sum
			}
		}
		if best < h {
			h = best
		}
	}
	return scoreUpperBound(b.g, h, b.nk, b.opts.Lambda), h
}
