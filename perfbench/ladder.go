package main

// The layer ladder: the same queries played one call at a time through
// each public entry point, from the core search up to the router, and
// the write path from prestige recompute up to compaction and follower
// re-bootstrap. Each layer's tax is its time minus the time of the layer
// below it.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"banks"
	"banks/internal/prestige"
	"banks/internal/repl"
	"banks/internal/router"
	"banks/internal/shard"
	"banks/internal/wal"
)

// ladderN is how many queries the ladder plays (a balanced prefix of the
// workload's list: each algorithm equally often).
const ladderN = 12

// ladderWrites is how many mutation batches each write layer applies.
const ladderWrites = 40

// readLadder holds per-query samples of each read layer.
type readLadder struct {
	lookupUS          []float64
	coreMS            []float64 // DB.SearchTerms Stats.Duration
	coreByAlgo        map[string][]float64
	explored, touched map[string][]float64
	relaxed           map[string][]float64
	sumCoreNS         float64
	sumRelaxed        float64
	allocs, bytes     []float64
	engineMissMS      []float64 // Engine.Search, cache miss
	engineOverheadUS  []float64 // miss wall − its core duration
	engineHitUS       []float64 // Engine.Search, cache hit
	streamFirstMS     []float64 // Engine.SearchStream first answer (cache off)
	handlerMissMS     []float64 // banksd handler span, miss
	serverSelfUS      []float64 // handler span − core duration, miss
	handlerHitMS      []float64 // banksd handler span, hit
	routerHitMS       []float64 // router handler span (shards hit)
}

// runReadLadder plays pairs through every read layer. handlerURL is the
// workload's unsharded banksd and routerURL a router over the workload's
// backends; tr must be recording.
func runReadLadder(s *stack, pairs []pair, handlerURL, routerURL string, tr *Tracer) (*readLadder, error) {
	l := &readLadder{
		coreByAlgo: map[string][]float64{}, explored: map[string][]float64{},
		touched: map[string][]float64{}, relaxed: map[string][]float64{},
	}
	cached, err := banks.NewEngine(s.built, banks.EngineOptions{})
	if err != nil {
		return nil, err
	}
	uncached, err := banks.NewEngine(s.built, banks.EngineOptions{CacheSize: -1})
	if err != nil {
		return nil, err
	}
	c := newClient(tr.transport("client", newTransport()))
	ctx := context.Background()
	var m0, m1 runtime.MemStats
	for _, p := range pairs {
		// A node budget one below the workload's gives cache keys that
		// the timed phases never used, so the first call is a miss.
		p.MaxNodes = maxNodes - 1
		opts := banks.Options{K: topK, MaxNodes: p.MaxNodes}
		algo := banks.Algorithm(p.Algo)

		t0 := time.Now()
		for _, term := range p.Terms {
			s.built.KeywordNodes(term)
		}
		l.lookupUS = append(l.lookupUS, float64(time.Since(t0))/float64(time.Microsecond))

		runtime.ReadMemStats(&m0)
		res, err := s.built.SearchTerms(p.Terms, algo, opts)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("DB.SearchTerms %s: %w", p.Key(), err)
		}
		st := res.Stats
		l.allocs = append(l.allocs, float64(m1.Mallocs-m0.Mallocs))
		l.bytes = append(l.bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		l.coreMS = append(l.coreMS, ms(st.Duration))
		l.coreByAlgo[p.Algo] = append(l.coreByAlgo[p.Algo], ms(st.Duration))
		l.explored[p.Algo] = append(l.explored[p.Algo], float64(st.NodesExplored))
		l.touched[p.Algo] = append(l.touched[p.Algo], float64(st.NodesTouched))
		l.relaxed[p.Algo] = append(l.relaxed[p.Algo], float64(st.EdgesRelaxed))
		l.sumCoreNS += float64(st.Duration)
		l.sumRelaxed += float64(st.EdgesRelaxed)

		t0 = time.Now()
		eres, err := cached.Search(ctx, p.Query(), algo, opts)
		miss := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("Engine.Search %s: %w", p.Key(), err)
		}
		l.engineMissMS = append(l.engineMissMS, ms(miss))
		l.engineOverheadUS = append(l.engineOverheadUS, float64(miss-eres.Stats.Duration)/float64(time.Microsecond))
		t0 = time.Now()
		if _, err := cached.Search(ctx, p.Query(), algo, opts); err != nil {
			return nil, err
		}
		l.engineHitUS = append(l.engineHitUS, float64(time.Since(t0))/float64(time.Microsecond))

		t0 = time.Now()
		stream, err := uncached.SearchStream(ctx, p.Query(), algo, opts, banks.StreamOptions{})
		if err != nil {
			return nil, fmt.Errorf("Engine.SearchStream %s: %w", p.Key(), err)
		}
		first := time.Duration(0)
		for range stream.Answers() {
			if first == 0 {
				first = time.Since(t0)
			}
		}
		if _, err := stream.Trailer(); err != nil {
			return nil, err
		}
		if first > 0 {
			l.streamFirstMS = append(l.streamFirstMS, ms(first))
		}

		r := c.search(ctx, handlerURL, p)
		if r.Err != nil {
			return nil, fmt.Errorf("banksd ladder %s: %w", p.Key(), r.Err)
		}
		h := tr.last("banksd /v1/search")
		l.handlerMissMS = append(l.handlerMissMS, ms(h.Dur()))
		l.serverSelfUS = append(l.serverSelfUS, (ms(h.Dur())-r.Reply.Stats.DurationMS)*1000)
		if r = c.search(ctx, handlerURL, p); r.Err != nil {
			return nil, r.Err
		}
		l.handlerHitMS = append(l.handlerHitMS, ms(tr.last("banksd /v1/search").Dur()))
		// The first routed call fills the shard caches; time the second.
		for i := 0; i < 2; i++ {
			if r = c.search(ctx, routerURL, p); r.Err != nil {
				return nil, fmt.Errorf("router ladder %s: %w", p.Key(), r.Err)
			}
		}
		l.routerHitMS = append(l.routerHitMS, ms(tr.last("router /v1/search").Dur()))
	}
	return l, nil
}

// last returns the most recent span whose name is name.
func (t *Tracer) last(name string) Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return t.spans[i]
		}
	}
	return Span{}
}

// ladderRouter starts a router over the given topology for the ladder,
// returning its URL and a stop function.
func ladderRouter(tr *Tracer, topology [][]string) (string, func(), error) {
	rt, err := router.New(router.Config{
		Shards: topology,
		Client: &http.Client{Transport: tr.transport("attempt", newTransport())},
	})
	if err != nil {
		return "", nil, err
	}
	l, err := listen(tr.wrapHandler("router", rt.Handler()))
	if err != nil {
		rt.Close()
		return "", nil, err
	}
	if err := waitHealthy(l.URL); err != nil {
		l.close()
		rt.Close()
		return "", nil, err
	}
	return l.URL, func() { l.close(); rt.Close() }, nil
}

// writeLadder holds the write path's layer samples.
type writeLadder struct {
	prestigeMS     []float64 // prestige.Compute on the served graph
	applyMS        []float64 // Live.Apply without a WAL
	applyWALMS     []float64 // Live.Apply with a WAL (fsync always)
	logAppendMS    []float64 // wal.Log.Append alone, same records and policy
	overlayRatio   float64   // core duration on the overlay ÷ on the base
	compactMS      float64
	syncsPerAppend float64
	walBytesPerOp  float64
	storePerOp     float64
	partitionMS    float64
	snapWriteMS    float64
	snapOpenMS     float64
	bootstrapMS    float64 // compaction done → follower re-bootstrapped
	follower       followerCounts
}

// walTaxP50 is the median per-batch cost the WAL adds to Live.Apply.
func (w *writeLadder) walTaxP50() float64 {
	d := make([]float64, len(w.applyMS))
	for i := range d {
		d[i] = w.applyWALMS[i] - w.applyMS[i]
	}
	return median(d)
}

// followerCounts are a follower's lifetime replication counters.
type followerCounts struct {
	RecordsApplied, Bootstraps, Reconnects uint64
}

// runWriteLadder measures the write path on a private primary/follower
// pair built from the workload's data: prestige.Compute, then
// Live.Apply without a WAL and with one, then a follower that catches up
// on the primary's log, Live.Compact and the follower's re-bootstrap. It
// also times the store and shard layers once.
func runWriteLadder(s *stack, pairs []pair, base *readLadder, seed int64) (*writeLadder, error) {
	w := &writeLadder{}
	dir := filepath.Join(s.dir, "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := shard.Partition(s.built.Graph, 2); err != nil {
		return nil, err
	}
	w.partitionMS = ms(time.Since(t0))
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		if _, err := prestige.Compute(s.built.Graph, prestige.Options{}); err != nil {
			return nil, err
		}
		w.prestigeMS = append(w.prestigeMS, ms(time.Since(t0)))
	}

	// The no-WAL layer; after the writes the ladder queries re-run on its
	// overlay.
	snapA := filepath.Join(dir, "a.snap")
	t0 = time.Now()
	if err := s.built.WriteSnapshotFile(snapA); err != nil {
		return nil, err
	}
	w.snapWriteMS = ms(time.Since(t0))
	t0 = time.Now()
	dbA, err := banks.OpenSnapshot(snapA)
	if err != nil {
		return nil, err
	}
	w.snapOpenMS = ms(time.Since(t0))
	defer dbA.Close()
	engA, err := banks.NewEngine(dbA, banks.EngineOptions{CacheSize: -1})
	if err != nil {
		return nil, err
	}
	liveA, err := banks.OpenLive(engA, banks.LiveOptions{})
	if err != nil {
		return nil, err
	}
	defer liveA.Close()
	// The WAL layer: a served primary. Its follower starts only after the
	// timed Apply pairs, so its own prestige recomputes do not compete
	// with them for the cores.
	policy, err := banks.ParseWALFsyncPolicy(walPolicy)
	if err != nil {
		return nil, err
	}
	pdir, fdir := filepath.Join(dir, "primary"), filepath.Join(dir, "follower")
	for _, d := range []string{pdir, fdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	snapB := filepath.Join(pdir, "b.snap")
	if err := s.built.WriteSnapshotFile(snapB); err != nil {
		return nil, err
	}
	dbB, err := banks.OpenSnapshot(snapB)
	if err != nil {
		return nil, err
	}
	prim, err := startNode(nil, "ladder primary", dbB, func(eng *banks.Engine) (*banks.Live, *repl.Follower, error) {
		l, err := banks.OpenLive(eng, banks.LiveOptions{SnapshotPath: snapB, WALPath: snapB + ".wal", WALFsync: policy})
		return l, nil, err
	})
	if err != nil {
		return nil, err
	}
	defer prim.close()

	// The same batches go to both, interleaved and in alternating order
	// so drift and warm caches favour neither; the WAL's tax is the
	// median of the per-batch differences.
	gen := newTraceGen(seed, int64(s.built.Graph.NumNodes()))
	var userBytes int
	apply := func(l *banks.Live, ops []banks.MutationOp, out *[]float64) error {
		t0 := time.Now()
		if _, err := l.Apply(ops); err != nil {
			return fmt.Errorf("Live.Apply (WAL %v): %w", l.HasWAL(), err)
		}
		*out = append(*out, ms(time.Since(t0)))
		return nil
	}
	var batches [][]banks.MutationOp
	for i := 0; i < ladderWrites; i++ {
		b := gen.batch(opsPerBatch)
		raw, _ := json.Marshal(b) // marshalling plain structs cannot fail
		userBytes += len(raw)
		batches = append(batches, b.toMutationOps())
		first, second := liveA, prim.live
		firstOut, secondOut := &w.applyMS, &w.applyWALMS
		if i%2 == 1 {
			first, second, firstOut, secondOut = second, first, secondOut, firstOut
		}
		if err := apply(first, b.toMutationOps(), firstOut); err != nil {
			return nil, err
		}
		if err := apply(second, b.toMutationOps(), secondOut); err != nil {
			return nil, err
		}
	}
	// The per-batch Apply difference carries the prestige recompute's
	// noise; the same records appended to a bare log of the same policy
	// time the WAL alone.
	log, _, err := wal.Open(filepath.Join(dir, "direct.wal"), wal.Options{Policy: policy})
	if err != nil {
		return nil, err
	}
	for i, ops := range batches {
		t0 := time.Now()
		if _, err := log.Append(0, uint64(i+1), ops); err != nil {
			log.Close()
			return nil, fmt.Errorf("wal.Log.Append: %w", err)
		}
		w.logAppendMS = append(w.logAppendMS, ms(time.Since(t0)))
	}
	if err := log.Close(); err != nil {
		return nil, err
	}

	var overlayNS, baseNS float64
	for i, p := range pairs {
		res, err := engA.Search(context.Background(), p.Query(), banks.Algorithm(p.Algo), banks.Options{K: topK, MaxNodes: maxNodes - 1})
		if err != nil {
			return nil, err
		}
		overlayNS += float64(res.Stats.Duration)
		baseNS += base.coreMS[i] * 1e6
	}
	w.overlayRatio = overlayNS / baseNS

	ws := prim.live.WALStats()
	w.syncsPerAppend = float64(ws.Syncs) / float64(ws.Appends)
	w.walBytesPerOp = float64(ws.SizeBytes) / float64(ladderWrites*opsPerBatch)

	// The follower bootstraps from the primary's base snapshot and must
	// apply every ladder batch from its log before the compaction.
	fol, err := startFollower(nil, prim.http.URL, filepath.Join(fdir, "b.snap"), policy)
	if err != nil {
		return nil, err
	}
	defer fol.close()
	// The log offset moves record by record, the applied count once per
	// fetched chunk: wait for both.
	deadline := time.Now().Add(lagTimeout)
	for {
		st := fol.fol.Stats()
		if st.WALOffset >= prim.live.WALSize() && st.RecordsApplied >= ladderWrites {
			if st.WALOffset != prim.live.WALSize() || st.RecordsApplied != ladderWrites {
				return nil, fmt.Errorf("ladder follower at WAL offset %d with %d records applied; want %d and %d",
					st.WALOffset, st.RecordsApplied, prim.live.WALSize(), ladderWrites)
			}
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ladder follower stopped at WAL offset %d with %d records applied; want %d and %d",
				st.WALOffset, st.RecordsApplied, prim.live.WALSize(), ladderWrites)
		}
		time.Sleep(time.Millisecond)
	}

	t0 = time.Now()
	cres, err := prim.live.Compact(context.Background())
	if err != nil {
		return nil, fmt.Errorf("Live.Compact: %w", err)
	}
	done := time.Now()
	w.compactMS = ms(done.Sub(t0))
	fi, err := os.Stat(cres.Path)
	if err != nil {
		return nil, err
	}
	w.storePerOp = float64(ws.SizeBytes+fi.Size()) / float64(userBytes)

	deadline = done.Add(lagTimeout)
	for fol.fol.Stats().Bootstraps < 1 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ladder follower never re-bootstrapped after compaction")
		}
		time.Sleep(200 * time.Microsecond)
	}
	w.bootstrapMS = ms(time.Since(done))
	st := fol.fol.Stats()
	w.follower = followerCounts{st.RecordsApplied, st.Bootstraps, st.Reconnects}
	return w, nil
}
