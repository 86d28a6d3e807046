package main

// The traced run: the workload is played for half the time untraced and
// half traced (their throughput gap is trace.overhead_frac), then the
// layer ladder runs, and the per-layer metrics are derived from the
// spans, the ladder and the engines' own counters.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// servingNodes are the banksd nodes that serve the timed reads.
func servingNodes(s *stack) []*node {
	if s.primary != nil {
		return []*node{s.primary}
	}
	return s.nodes
}

func cacheCounts(s *stack) (hits, misses uint64) {
	for _, n := range servingNodes(s) {
		h, m := n.eng.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

func tracedRun(workload string, s *stack, r runner, tr *Tracer, d time.Duration, seed int64) (output, error) {
	out := output{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { out.Metrics[name] = metric{v, unit} }

	// Untraced half: throughput base, Go runtime and engine counters.
	tr.on.Store(false)
	var m0, m1 runtime.MemStats
	h0, x0 := cacheCounts(s)
	runtime.ReadMemStats(&m0)
	pU := r.run(d / 2)
	runtime.ReadMemStats(&m1)
	h1, x1 := cacheCounts(s)
	reqs := math.Max(1, float64(pU.reads))
	put("runtime.alloc_bytes_per_request", float64(m1.TotalAlloc-m0.TotalAlloc)/reqs, "B")
	put("runtime.gc_cycles_per_request", float64(m1.NumGC-m0.NumGC)/reqs, "ratio")
	put("engine.cache_hit_ratio", float64(h1-h0)/math.Max(1, float64(h1-h0+x1-x0)), "ratio")
	put("engine.searches_executed_per_request", float64(x1-x0)/reqs, "ratio")

	// Traced half.
	tr.reset()
	tr.on.Store(true)
	pT := r.run(d / 2)
	put("trace.overhead_frac", 1-pT.qps()/pU.qps(), "ratio")
	put("server.rejected", float64(pU.rejected+pT.rejected), "count")
	r.check(pT) // the oracles cover both halves
	for _, p := range []*phase{pU, pT} {
		report(workload+" (traced run)", p)
		out.Attempted += p.attempted
		out.Failed += p.failed
	}

	// The ladder, traced.
	handlerURL, routerURL, shards := s.front, "", 1
	if s.rt != nil {
		handlerURL, routerURL, shards = s.ref.http.URL, s.front, len(s.nodes)
	} else {
		u, stop, err := ladderRouter(tr, [][]string{{handlerURL}})
		if err != nil {
			return out, err
		}
		defer stop()
		routerURL = u
	}
	pairs := r.ladderPairs()
	rl, err := runReadLadder(s, pairs, handlerURL, routerURL, tr)
	if err != nil {
		return out, err
	}
	wl, err := runWriteLadder(s, pairs, rl, seed)
	if err != nil {
		return out, err
	}
	spans := tr.Spans()

	coreAll, coreByAlgo := phaseCore(pU, pT)
	coreSrc := "timed reads' response stats"
	if !tailOf(coreAll, 0.95).ok() {
		// The routed workloads' reads are cache hits that record no core
		// time: the ladder's calls supply it.
		coreAll, coreByAlgo, coreSrc = rl.coreMS, rl.coreByAlgo, "layer ladder"
	}
	fmt.Printf("core.duration_ms from the %s: n=%d", coreSrc, len(coreAll))
	for _, a := range algoNames {
		fmt.Printf(", %s n=%d", a, len(coreByAlgo[a]))
	}
	fmt.Println()
	put("core.duration_ms.p50", median(coreAll), "ms")
	put("core.duration_ms.p95", percentile(coreAll, 0.95), "ms")
	var explored, touched, relaxed []float64
	for _, a := range algoNames {
		put("core.duration_ms."+a, orZero(median(coreByAlgo[a])), "ms")
		explored = append(explored, rl.explored[a]...)
		touched = append(touched, rl.touched[a]...)
		relaxed = append(relaxed, rl.relaxed[a]...)
	}
	put("core.nodes_explored_per_query", mean(explored), "count")
	put("core.nodes_touched_per_query", mean(touched), "count")
	put("core.edges_relaxed_per_query", mean(relaxed), "count")
	put("core.ns_per_edge_relaxed", rl.sumCoreNS/math.Max(1, rl.sumRelaxed), "ns")
	put("core.allocs_per_query", mean(rl.allocs), "count")
	put("core.bytes_per_query", mean(rl.bytes), "B")
	put("engine.hit_us.p50", median(rl.engineHitUS), "us")
	put("engine.overhead_us.p50", median(rl.engineOverheadUS), "us")
	put("engine.stream_first_answer_ms.p50", orZero(median(rl.streamFirstMS)), "ms")
	put("index.lookup_us.p50", median(rl.lookupUS), "us")

	var handler, handlerBytes, routerMS, attemptMS, routerSelf []float64
	kids := childrenOf(spans)
	routed, attempts := 0, 0
	for _, sp := range spans {
		switch {
		case strings.HasPrefix(sp.Name, "banksd /v1/search"):
			handler = append(handler, ms(sp.Dur()))
			handlerBytes = append(handlerBytes, float64(sp.Bytes))
		case sp.Name == "router /v1/search":
			routed++
			routerMS = append(routerMS, ms(sp.Dur()))
			var tries []Span
			for _, k := range kids[sp.ID] {
				if strings.HasPrefix(k.Name, "attempt ") {
					tries = append(tries, k)
					attemptMS = append(attemptMS, ms(k.Dur()))
				}
			}
			attempts += len(tries)
			routerSelf = append(routerSelf, float64(selfTime(sp, tries))/float64(time.Microsecond))
		}
	}
	put("server.handler_ms.p50", median(handler), "ms")
	put("server.handler_ms.p95", percentile(handler, 0.95), "ms")
	put("server.self_us.p50", median(rl.serverSelfUS), "us")
	put("server.response_bytes.p50", median(handlerBytes), "B")
	put("router.handler_ms.p50", median(routerMS), "ms")
	put("router.handler_ms.p95", percentile(routerMS, 0.95), "ms")
	put("router.shard_attempt_ms.p50", median(attemptMS), "ms")
	put("router.shard_attempt_ms.p95", percentile(attemptMS, 0.95), "ms")
	put("router.self_us.p50", median(routerSelf), "us")
	put("router.attempts_per_shard_query", float64(attempts)/math.Max(1, float64(routed*shards)), "ratio")

	applyP50, walP50 := median(wl.applyMS), wl.walTaxP50()
	put("delta.apply_ms.p50", applyP50, "ms")
	put("delta.apply_ms.p90", percentile(wl.applyMS, 0.90), "ms")
	put("prestige.compute_ms.p50", median(wl.prestigeMS), "ms")
	put("prestige.share_of_apply", median(wl.prestigeMS)/(applyP50+walP50), "ratio")
	put("wal.share_of_apply", walP50/(applyP50+walP50), "ratio")
	put("delta.overlay_search_ratio", wl.overlayRatio, "ratio")
	put("delta.compact_ms", wl.compactMS, "ms")
	put("wal.append_ms.p50", walP50, "ms")
	put("wal.log_append_ms.p50", median(wl.logAppendMS), "ms")
	put("wal.syncs_per_append", wl.syncsPerAppend, "ratio")
	put("wal.bytes_per_op", wl.walBytesPerOp, "B")
	put("store.bytes_written_per_op", wl.storePerOp, "ratio")
	put("store.snapshot_write_ms", wl.snapWriteMS, "ms")
	put("store.snapshot_open_ms", wl.snapOpenMS, "ms")
	put("shard.partition_ms", wl.partitionMS, "ms")
	fc := wl.follower
	if s.follower != nil {
		st := s.follower.fol.Stats()
		fc = followerCounts{st.RecordsApplied, st.Bootstraps, st.Reconnects}
	}
	put("repl.records_applied", float64(fc.RecordsApplied), "count")
	put("repl.bootstraps", float64(fc.Bootstraps), "count")
	put("repl.reconnects", float64(fc.Reconnects), "count")
	put("repl.bootstrap_ms.p50", wl.bootstrapMS, "ms")

	printLadder(rl, wl, routerMS, routerSelf)
	dir := filepath.Join(".bench_build", "perfbench-spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := tr.writeFile(path); err != nil {
		return out, err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return out, nil
}

// phaseCore pools the response stats.duration_ms of both halves of the
// traced run, overall and per algorithm.
func phaseCore(phases ...*phase) (all []float64, byAlgo map[string][]float64) {
	byAlgo = map[string][]float64{}
	for _, a := range algoNames {
		for _, p := range phases {
			byAlgo[a] = append(byAlgo[a], p.coreMS[a]...)
		}
		all = append(all, byAlgo[a]...)
	}
	return all, byAlgo
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// printLadder prints each layer's p50 with its tax over the layer below,
// and the §5.2 counters per algorithm.
func printLadder(rl *readLadder, wl *writeLadder, routerMS, routerSelf []float64) {
	fmt.Println("layer ladder (p50 over the ladder queries, one call at a time; tax = p50 of the per-query difference to the layer below):")
	row := func(layer string, v, below []float64) {
		if below == nil {
			fmt.Printf("  %-34s %10.3f ms\n", layer, median(v))
			return
		}
		d := make([]float64, len(v))
		for i := range v {
			d[i] = v[i] - below[i]
		}
		fmt.Printf("  %-34s %10.3f ms  tax %8.3f ms of %.3f ms\n", layer, median(v), median(d), median(v))
	}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	row("index lookup", scale(rl.lookupUS, 1e-3), nil)
	row("DB.SearchTerms (core)", rl.coreMS, nil)
	row("Engine.Search miss", rl.engineMissMS, rl.coreMS)
	row("Engine.SearchStream first answer", rl.streamFirstMS, nil)
	row("banksd handler miss", rl.handlerMissMS, rl.engineMissMS)
	fmt.Printf("  %-34s %10.3f us of %.3f ms\n", "banksd self (handler − core)", median(rl.serverSelfUS), median(rl.handlerMissMS))
	row("Engine.Search hit", scale(rl.engineHitUS, 1e-3), nil)
	row("banksd handler hit", rl.handlerHitMS, scale(rl.engineHitUS, 1e-3))
	row("router handler (shards hit)", rl.routerHitMS, rl.handlerHitMS)
	if len(routerMS) > 0 {
		fmt.Printf("  %-34s %10.3f us of %.3f ms (all traced router spans)\n", "router self", median(routerSelf), median(routerMS))
	}
	for _, a := range algoNames {
		if n := len(rl.coreByAlgo[a]); n > 0 {
			fmt.Printf("  §5.2 %-13s n=%d core p50 %.3f ms, explored %.0f, touched %.0f, edges relaxed %.0f (means)\n",
				a, n, median(rl.coreByAlgo[a]), mean(rl.explored[a]), mean(rl.touched[a]), mean(rl.relaxed[a]))
		}
	}
	apply, tax := median(wl.applyMS), wl.walTaxP50()
	base, pr := apply+tax, median(wl.prestigeMS)
	fmt.Println("write ladder (p50):")
	fmt.Printf("  prestige.Compute %10.3f ms (%.1f%% of Apply %.3f ms + WAL tax %.3f ms)\n", pr, 100*pr/base, apply, tax)
	fmt.Printf("  Live.Apply, no WAL %8.3f ms; WAL tax %.3f ms (%.1f%% of %.3f ms; median per-batch difference)\n", apply, tax, 100*tax/base, base)
	fmt.Printf("  wal.Log.Append alone %6.3f ms p50, %.3f ms p90 (same %d records and fsync policy)\n",
		median(wl.logAppendMS), percentile(wl.logAppendMS, 0.9), len(wl.logAppendMS))
	fmt.Printf("  Live.Compact %14.3f ms; follower re-bootstrap %.3f ms after\n", wl.compactMS, wl.bootstrapMS)
	fmt.Printf("  overlay ÷ base core time %.3f over %d queries\n", wl.overlayRatio, len(rl.coreMS))
}
