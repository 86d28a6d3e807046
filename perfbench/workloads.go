package main

// The three workloads' timed loops and their answer oracles.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"banks"
)

// clients is the closed-loop client count: the host has 2 cores, and
// load comes from this process alone.
const clients = 2

// phase collects one timed phase's samples. Latencies are milliseconds.
type phase struct {
	mu      sync.Mutex
	elapsed time.Duration
	// reads counts completed read requests (search and stream).
	reads  int
	search []float64 // full-response latency behind search_p50_ms
	// searchOnly is /v1/search alone where search also pools streams.
	searchOnly []float64
	streamAll  []float64 // /v1/search/stream full-response latency
	first      []float64 // /v1/search/stream first answer line
	ryw        []float64 // read-your-writes searches (read-write)
	mutate     []float64 // /v1/mutate ack, from the batch's due time
	late       []float64 // open-loop send lateness
	lag        []float64 // primary ack → follower caught up
	compact    []float64 // /v1/compact
	// coreMS is the response stats.duration_ms per algorithm.
	coreMS    map[string][]float64
	attempted int
	failed    int
	rejected  int
	failures  []string
}

func newPhase() *phase { return &phase{coreMS: map[string][]float64{}} }

// fail records one failed op (the op is also counted as attempted by
// the caller).
func (p *phase) fail(what string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// add appends v to the series under the lock.
func (p *phase) add(series *[]float64, v float64) {
	p.mu.Lock()
	*series = append(*series, v)
	p.mu.Unlock()
}

// read records one read request's outcome.
func (p *phase) read(r result, algo string, series *[]float64, what string) bool {
	p.mu.Lock()
	p.attempted++
	p.mu.Unlock()
	if r.Err != nil {
		if isRefusal(r.Err) {
			p.mu.Lock()
			p.rejected++
			p.mu.Unlock()
		}
		p.fail(what, r.Err)
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reads++
	*series = append(*series, ms(r.Total))
	if algo != "" {
		p.coreMS[algo] = append(p.coreMS[algo], r.Reply.Stats.DurationMS)
	}
	return true
}

func isRefusal(err error) bool {
	s := err.Error()
	return len(s) >= 8 && (s[:8] == "HTTP 429" || s[:6] == "HTTP 5")
}

// qps is completed reads per second of the phase.
func (p *phase) qps() float64 { return float64(p.reads) / p.elapsed.Seconds() }

// closedLoop runs clients goroutines that each call op(client, i) with
// a shared, increasing request index until d has elapsed, and returns the
// time until the last one finished and how many indexes were issued.
func closedLoop(d time.Duration, op func(client, i int)) (time.Duration, int) {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(c, int(next.Add(1)-1))
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), int(next.Load())
}

// openLoop runs an open-loop schedule: op i is due at start + i·period,
// for every due time before end. It sleeps until each op is due and
// calls send, which returns when the op was acknowledged and whether it
// succeeded. An op that overruns its period makes the ones behind it
// late, and since latency runs from the due time, not the send, that
// wait is charged to them. It returns each op's lateness (due → sent)
// and each acknowledged op's latency (due → ack), in milliseconds.
func openLoop(start time.Time, period time.Duration, end time.Time, send func() (time.Time, bool)) (late, latency []float64) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			return late, latency
		}
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		if acked, ok := send(); ok {
			latency = append(latency, ms(acked.Sub(due)))
		}
	}
}

// runner is one workload on its running stack.
type runner interface {
	// warm does the timed-set-up work that precedes the first timed
	// request (cache warm-up).
	warm(t *timer) error
	// run plays the workload for d.
	run(d time.Duration) *phase
	// check runs the post-run oracles, adding failures to p.
	check(p *phase)
	// ladderPairs are the queries the layer ladder plays.
	ladderPairs() []pair
}

// distinctRunner plays the distinct (query, algorithm) list.
type distinctRunner struct {
	s    *stack
	list []pair
	c    *client
	// pos is where the next phase resumes in the list.
	pos int
	// sample holds the answers of the seeded oracle sample, by list index.
	sampleMu sync.Mutex
	sample   map[int][]byte
	every    int
	offset   int
}

func (r *distinctRunner) warm(*timer) error { return nil }

func (r *distinctRunner) run(d time.Duration) *phase {
	p := newPhase()
	base := r.pos
	var issued int
	p.elapsed, issued = closedLoop(d, func(_ int, j int) {
		i := base + j
		pr := r.list[i%len(r.list)]
		var res result
		if streamAt(i) {
			res = r.c.stream(context.Background(), r.s.front, pr)
			if p.read(res, pr.Algo, &p.streamAll, "stream "+pr.Key()) {
				// Both endpoints' full responses feed search_*: twice the
				// samples, so the p95 keeps ten beyond it on a slow host.
				p.add(&p.search, ms(res.Total))
				if res.First > 0 {
					p.add(&p.first, ms(res.First))
				}
			}
		} else {
			res = r.c.search(context.Background(), r.s.front, pr)
			if p.read(res, pr.Algo, &p.search, "search "+pr.Key()) {
				p.add(&p.searchOnly, ms(res.Total))
			}
		}
		if res.Err == nil && i%r.every == r.offset {
			r.sampleMu.Lock()
			r.sample[i] = res.Reply.Answers
			r.sampleMu.Unlock()
		}
	})
	r.pos += issued
	return p
}

// check compares the seeded sample of served answers with in-process
// DB.SearchTerms on the from-scratch DB.
func (r *distinctRunner) check(p *phase) {
	for i, raw := range r.sample {
		pr := r.list[i%len(r.list)]
		res, err := r.s.built.SearchTerms(pr.Terms, banks.Algorithm(pr.Algo), banks.Options{K: topK, MaxNodes: maxNodes})
		p.attempted++
		if err == nil {
			err = matchesLibrary(raw, res.Answers)
		}
		if err != nil {
			p.fail("library oracle "+pr.Key(), err)
		}
	}
}

func (r *distinctRunner) ladderPairs() []pair { return r.list[:min(ladderN, len(r.list))] }

// hotRunner plays Zipf draws from the hot set through the router.
type hotRunner struct {
	s    *stack
	hot  []pair
	c    *client
	zipf [clients]*rand.Zipf
	// want is each hot pair's routed answer bytes, checked at warm-up;
	// every timed response must repeat them.
	want [][]byte
	// served counts, per hot pair, the timed responses that repeated
	// want: when want itself is wrong, each of them was.
	served []atomic.Int64
	// unsharded counts, per algorithm, hot pairs whose routed answers
	// differ from the unsharded banksd's.
	unsharded map[string]int
	// ladder is what the layer ladder plays: every algorithm, whichever
	// the hot set holds.
	ladder []pair
}

func newHotRunner(s *stack, hot, ladder []pair, seed int64, c *client) *hotRunner {
	r := &hotRunner{s: s, hot: hot, ladder: ladder[:min(ladderN, len(ladder))], c: c, served: make([]atomic.Int64, len(hot))}
	for i := range r.zipf {
		r.zipf[i] = newZipf(seed, i, len(hot))
	}
	return r
}

// warm sends every hot pair through the router once, filling both shard
// caches (timed, and counted in setup_s); the routed bytes become the
// answers every timed response must repeat, judged by check.
func (r *hotRunner) warm(t *timer) error {
	r.want = make([][]byte, len(r.hot))
	for i, pr := range r.hot {
		res := r.c.search(context.Background(), r.s.front, pr)
		if res.Err != nil {
			return fmt.Errorf("warm-up %s: %w", pr.Key(), res.Err)
		}
		r.want[i] = res.Reply.Answers
	}
	t.mark("warmup")
	return nil
}

func (r *hotRunner) run(d time.Duration) *phase {
	p := newPhase()
	p.elapsed, _ = closedLoop(d, func(c, _ int) {
		k := int(r.zipf[c].Uint64())
		pr := r.hot[k]
		res := r.c.search(context.Background(), r.s.front, pr)
		if !p.read(res, "", &p.search, "routed "+pr.Key()) {
			return
		}
		if !bytes.Equal(res.Reply.Answers, r.want[k]) {
			if err := sameAnswers(res.Reply.Answers, r.want[k]); err != nil {
				p.fail("routed oracle "+pr.Key(), err)
				return
			}
		}
		r.served[k].Add(1)
	})
	return p
}

// exactAlgos are the algorithms docs/SERVING.md's exactness envelope
// says route exactly across components: their routed answers must equal
// one unsharded banksd's. The backward variants are exact per component
// and best-effort across components, so for them a difference is
// reported, not failed.
var exactAlgos = map[string]bool{"bidirectional": true}

// check judges each hot pair's routed answers twice:
//
//   - against the router's own merge, the in-process banks.MergeTopK of
//     DB.SearchTerms on each shard;
//   - against the unsharded reference banksd (`jq -cS .answers`
//     equality), which fails the pair only for an exactAlgos algorithm.
//
// A pair that fails either check fails once here, and every timed
// response that served its answer counts as failed too: each was a
// wrong answer, however fast.
func (r *hotRunner) check(p *phase) {
	r.unsharded = map[string]int{}
	for i, pr := range r.hot {
		p.attempted++
		var lists [][]*banks.Answer
		var err error
		for _, n := range r.s.nodes {
			sr, serr := n.db.SearchTerms(pr.Terms, banks.Algorithm(pr.Algo), banks.Options{K: topK, MaxNodes: maxNodes})
			if serr != nil {
				err = serr
				break
			}
			lists = append(lists, sr.Answers)
		}
		if err == nil {
			err = matchesLibrary(r.want[i], banks.MergeTopK(topK, lists...))
		}
		if err != nil {
			err = fmt.Errorf("routed answers differ from the merge of the shards' answers: %w", err)
		} else if ref := r.c.search(context.Background(), r.s.ref.http.URL, pr); ref.Err != nil {
			err = fmt.Errorf("unsharded reference: %w", ref.Err)
		} else {
			var differ bool
			if differ, err = againstUnsharded(pr.Algo, r.want[i], ref.Reply.Answers); differ {
				r.unsharded[pr.Algo]++
			}
			if err != nil {
				err = fmt.Errorf("routed answers differ from one unsharded banksd: %w", err)
			}
		}
		if err != nil {
			p.fail("routed oracle "+pr.Key(), err)
			p.mu.Lock()
			p.failed += int(r.served[i].Load())
			p.mu.Unlock()
		}
	}
	fmt.Printf("routed vs unsharded banksd, hot pairs that differ of %d:", len(r.hot))
	for _, a := range algoNames {
		if !slices.ContainsFunc(r.hot, func(h pair) bool { return h.Algo == a }) {
			continue
		}
		verdict := "reported"
		if exactAlgos[a] {
			verdict = "failed"
		}
		fmt.Printf(" %s %d (%s)", a, r.unsharded[a], verdict)
	}
	fmt.Println()
}

// againstUnsharded judges routed answers against the unsharded
// banksd's: it reports whether they differ, and fails the difference
// only for an exactAlgos algorithm.
func againstUnsharded(algo string, routed, ref []byte) (differ bool, err error) {
	if err := sameAnswers(routed, ref); err != nil {
		if exactAlgos[algo] {
			return true, err
		}
		return true, nil
	}
	return false, nil
}

func (r *hotRunner) ladderPairs() []pair { return r.ladder }

// Read-write sizing.
const (
	// writeRate is the open-loop mutation rate (batches per second): at
	// least 100 acks in a run of 25 s or more, enough for a p90 with ten
	// beyond it, while the primary's and the follower's prestige
	// recomputes leave the 2 cores room for the reader.
	writeRate = 4
	// opsPerBatch is the /v1/mutate batch size.
	opsPerBatch = 4
	// compactEvery is the compaction period in batches: a compaction and
	// follower re-bootstrap every 7.5 s, several per run.
	compactEvery = 30
	// lagTimeout bounds how long the benchmark waits for the follower.
	lagTimeout = 30 * time.Second
)

// ack is one acknowledged mutation batch.
type ack struct {
	gen    uint64
	offset int64
	at     time.Time
}

// rwRunner drives the read-write workload: an open-loop writer, a
// closed-loop reader on the primary, and a lag watcher on the follower.
type rwRunner struct {
	s   *stack
	hot []pair
	c   *client
	// next is the reader's position in its round-robin over the hot set.
	next  int
	gen   *traceGen
	batch int
	// acked lists every term an acked batch inserted.
	acked []string
	// latestTerm is the newest acked term, latestNodes the nodes that
	// carried it at that ack.
	latestMu    sync.Mutex
	latestTerm  string
	latestNodes []int64
	// writes is odd while a mutation batch is in flight.
	writes   atomic.Int64
	last     ack
	compacts int
}

func newRWRunner(s *stack, hot []pair, seed int64, c *client) *rwRunner {
	return &rwRunner{
		s: s, hot: hot, c: c,
		gen: newTraceGen(seed, int64(s.built.Graph.NumNodes())),
	}
}

// warm does nothing: the first write, due as the run starts,
// invalidates every cached entry, so a warm cache would not survive
// into the measurement.
func (r *rwRunner) warm(*timer) error { return nil }

// caughtUp reports whether the follower has applied a.
func (r *rwRunner) caughtUp(a ack) bool {
	st := r.s.follower.fol.Stats()
	return st.Generation > a.gen || (st.Generation == a.gen && st.WALOffset >= a.offset)
}

// waitFollower blocks until the follower has applied a (or timeout),
// waking on the follower log's change notification.
func (r *rwRunner) waitFollower(a ack, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		ch := r.s.follower.live.WALChanged()
		if r.caughtUp(a) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-ch:
		case <-time.After(time.Millisecond):
		}
	}
}

func (r *rwRunner) run(d time.Duration) *phase {
	p := newPhase()
	start := time.Now()
	end := start.Add(d)
	period := time.Second / writeRate
	// acks is sized to every batch the phase can send.
	acks := make(chan ack, int(d/period)+2)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // writer: open loop, timed from each batch's due time
		defer wg.Done()
		defer close(acks)
		late, lat := openLoop(start, period, end, func() (time.Time, bool) {
			b := r.gen.batch(opsPerBatch)
			var rep mutateReply
			p.mu.Lock()
			p.attempted++
			p.mu.Unlock()
			r.writes.Add(1)
			err := r.c.post(context.Background(), r.s.front+"/v1/mutate", b, &rep)
			now := time.Now()
			if err == nil {
				err = r.verifyAck(b, rep)
			}
			r.writes.Add(1)
			if err != nil {
				p.fail("mutate", err)
				return now, false
			}
			acks <- ack{gen: rep.Generation, offset: *rep.WALOffset, at: now}
			r.batch++
			if r.batch%compactEvery == 0 {
				// Compaction runs on the writer's schedule: the batches
				// due meanwhile go out late, and their latency shows it.
				t0 := time.Now()
				p.mu.Lock()
				p.attempted++
				p.mu.Unlock()
				if err := r.c.post(context.Background(), r.s.front+"/v1/compact", nil, nil); err != nil {
					p.fail("compact", err)
				} else {
					r.compacts++
					p.add(&p.compact, ms(time.Since(t0)))
				}
			}
			return now, true
		})
		p.mu.Lock()
		p.late, p.mutate = late, lat
		p.mu.Unlock()
	}()
	go func() { // lag watcher
		defer wg.Done()
		for a := range acks {
			if !r.waitFollower(a, lagTimeout) {
				p.fail("replica lag", fmt.Errorf("follower did not reach generation %d offset %d", a.gen, a.offset))
				continue
			}
			p.add(&p.lag, ms(time.Since(a.at)))
		}
	}()
	go func() { // reader: closed loop, hot-set and read-your-writes reads
		defer wg.Done()
		for i := 0; time.Now().Before(end); i++ {
			w0 := r.writes.Load()
			r.latestMu.Lock()
			term, nodes := r.latestTerm, r.latestNodes
			r.latestMu.Unlock()
			if i%2 == 1 && term != "" {
				pr := termPair(term, len(nodes))
				res := r.c.search(context.Background(), r.s.front, pr)
				// Judge the read only if no batch was in flight around it:
				// a later batch may give the same term to another node.
				stable := w0%2 == 0 && r.writes.Load() == w0
				if p.read(res, "", &p.ryw, "read-your-writes "+term) && stable {
					if err := findsNodes(res.Reply.Answers, nodes); err != nil {
						p.fail("read-your-writes "+term, err)
					}
				}
				continue
			}
			// Hot reads cycle through the whole hot set: each write
			// invalidates the cache, so most are misses, and a Zipf head
			// would let one seed's few favourite queries set the figures.
			pr := r.hot[r.next%len(r.hot)]
			r.next++
			p.read(r.c.search(context.Background(), r.s.front, pr), pr.Algo, &p.search, "hot "+pr.Key())
		}
	}()
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// verifyAck checks a mutate reply against the trace's predictions and
// records the batch's terms as acked.
func (r *rwRunner) verifyAck(b traceBatch, rep mutateReply) error {
	if rep.Applied != len(b.Ops) || rep.WALOffset == nil || !rep.Durable {
		return fmt.Errorf("mutate ack: applied %d of %d, wal_offset set %v, durable %v",
			rep.Applied, len(b.Ops), rep.WALOffset != nil, rep.Durable)
	}
	if !slices.Equal(rep.Assigned, b.Inserted) {
		return fmt.Errorf("mutate ack: assigned nodes %v, trace predicted %v", rep.Assigned, b.Inserted)
	}
	r.acked = append(r.acked, b.Terms...)
	if len(b.Terms) > 0 {
		term := b.Terms[len(b.Terms)-1]
		r.latestMu.Lock()
		r.latestTerm, r.latestNodes = term, slices.Clone(r.gen.holders[term])
		r.latestMu.Unlock()
	}
	r.last = ack{gen: rep.Generation, offset: *rep.WALOffset}
	return nil
}

// termPair asks for the nodes carrying a generated term: k = their
// number lets the search stop once it has them instead of exhausting
// the graph for more.
func termPair(term string, holders int) pair {
	return pair{Terms: []string{term}, Algo: "bidirectional", K: holders}
}

// check waits for the follower to apply the last ack, then requires
// every acked insert to be found by its unique term on the primary and
// the follower, follower answers to equal the primary's for a sample of
// the hot set, and one follower re-bootstrap per compaction.
func (r *rwRunner) check(p *phase) {
	p.attempted++
	if !r.waitFollower(r.last, lagTimeout) {
		p.fail("follower catch-up", fmt.Errorf("never reached generation %d offset %d", r.last.gen, r.last.offset))
		return
	}
	for _, term := range r.acked {
		pr := termPair(term, len(r.gen.holders[term]))
		for _, n := range []*node{r.s.primary, r.s.follower} {
			p.attempted++
			res := r.c.search(context.Background(), n.http.URL, pr)
			err := res.Err
			if err == nil {
				err = findsNodes(res.Reply.Answers, r.gen.holders[term])
			}
			if err != nil {
				p.fail("acked insert "+term, err)
			}
		}
	}
	for i, pr := range r.hot {
		if i%4 != 0 {
			continue
		}
		p.attempted++
		a := r.c.search(context.Background(), r.s.primary.http.URL, pr)
		b := r.c.search(context.Background(), r.s.follower.http.URL, pr)
		err := a.Err
		if err == nil {
			err = b.Err
		}
		if err == nil {
			err = sameAnswers(b.Reply.Answers, a.Reply.Answers)
		}
		if err != nil {
			p.fail("follower oracle "+pr.Key(), err)
		}
	}
	p.attempted++
	if st := r.s.follower.fol.Stats(); int(st.Bootstraps) != r.compacts {
		p.fail("follower bootstraps", fmt.Errorf("%d bootstraps for %d compactions", st.Bootstraps, r.compacts))
	}
}

func (r *rwRunner) ladderPairs() []pair { return r.hot[:min(ladderN, len(r.hot))] }
