// Command perfbench is the repository's benchmark. It starts the real
// serving stack in-process on loopback listeners (banksd's server, the
// banksrouter router, live primaries with a WAL and log-shipped
// followers), plays one seeded workload against it, checks every answer,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics from spans and the layer ladder). The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload distinct|hot-routed|hot-routed-backward|read-write --seed 1 --seconds 40 --trace 0|1
//
// Working files go under .bench_build/ in the current directory and are
// removed at exit, except the traced run's span file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A measured run sets the stack up at least setupReps times, and keeps
// going (up to maxSetupReps) until minSetupTotal of set-up time has been
// measured, so a set-up of a tenth of a second is the median of 21
// samples and one of a second (the routed workloads' cache warm-up) the
// median of 11. setup_s is the median.
const (
	setupReps     = 11
	maxSetupReps  = 21
	minSetupTotal = 3000 // ms
)

// workloads maps each workload to its stack's set-up.
var workloads = map[string]func(string, *Tracer, *timer) (*stack, error){
	"distinct": setupDistinct, "hot-routed": setupHotRouted,
	"hot-routed-backward": setupHotRouted, "read-write": setupReadWrite,
}

func main() {
	workload := flag.String("workload", "distinct", strings.Join(sortedKeys(workloads), ", "))
	seed := flag.Int64("seed", 1, "workload seed: query lists, Zipf draws and mutation traces")
	seconds := flag.Int("seconds", 40, "measured duration of the run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errFailed reports oracle or request failures after the result line.
type errFailed struct{ n int }

func (e errFailed) Error() string { return fmt.Sprintf("%d operations failed", e.n) }

func run(workload string, seed int64, d time.Duration, traced bool) error {
	setup, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(sortedKeys(workloads), ", "))
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", strconv.Itoa(os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	printHost()

	var tr *Tracer
	reps := setupReps
	if traced {
		tr = newTracer()
		reps = 1
	}
	c := newClient(tr.transport("client", newTransport()))
	var (
		s        *stack
		r        runner
		setupMS  []float64
		phaseSum = map[string][]float64{}
	)
	for rep := 0; rep < reps || (!traced && rep < maxSetupReps && sum(setupMS) < minSetupTotal); rep++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		t := newTimer()
		if s, err = setup(filepath.Join(root, fmt.Sprintf("setup%d", rep)), tr, t); err != nil {
			return err
		}
		t.skip()
		if r, err = newRunner(workload, s, seed, c); err != nil {
			s.close()
			return err
		}
		t.skip()
		if err := r.warm(t); err != nil {
			s.close()
			return err
		}
		setupMS = append(setupMS, t.total())
		for k, v := range t.phases {
			phaseSum[k] = append(phaseSum[k], v)
		}
	}
	defer s.close()
	fmt.Printf("setup: %d reps, median %.1f ms;", len(setupMS), median(setupMS))
	for _, k := range sortedKeys(phaseSum) {
		fmt.Printf(" %s %.1f ms", k, median(phaseSum[k]))
	}
	fmt.Println()

	out := output{Metrics: map[string]metric{}}
	if !traced {
		stop := sampleRSS()
		p := r.run(d)
		rss := stop()
		r.check(p)
		report(workload, p)
		fmt.Printf("  rss               n=%-5d p95 %9.3f MiB of samples every %v; VmHWM %.3f MiB\n",
			len(rss), percentile(rss, 0.95), rssEvery, readStatusMiB("VmHWM:"))
		out.Attempted, out.Failed = p.attempted, p.failed
		out.Metrics = endToEnd(p, median(setupMS)/1000, percentile(rss, 0.95))
	} else {
		out, err = tracedRun(workload, s, r, tr, d, seed)
		if err != nil {
			return err
		}
	}
	out.Correct = out.Failed == 0
	for _, k := range sortedKeys(out.Metrics) {
		fmt.Printf("%-40s %14.4f %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.Failed > 0 {
		return errFailed{out.Failed}
	}
	return nil
}

// newRunner generates the workload's seeded inputs on the stack's data.
func newRunner(workload string, s *stack, seed int64, c *client) (runner, error) {
	q := newQueryGen(s.ds, s.built)
	switch workload {
	case "distinct":
		list := distinctList(q, seed, distinctPerCell)
		if len(list) <= 2*cacheEntries {
			return nil, fmt.Errorf("distinct list has %d pairs, need more than %d", len(list), 2*cacheEntries)
		}
		return &distinctRunner{s: s, list: list, c: c, sample: map[int][]byte{},
			every: oracleEvery, offset: int(seed % oracleEvery)}, nil
	case "hot-routed":
		hot := hotSet(q, poolSeed, hotSize, algoNames)
		return newHotRunner(s, hot, hot, seed, c), nil
	case "hot-routed-backward":
		// The ladder plays hot-routed's pairs, so it times all three
		// algorithms here too.
		return newHotRunner(s, hotSet(q, poolSeed, hotSize, backwardAlgos), hotSet(q, poolSeed, hotSize, algoNames), seed, c), nil
	default:
		return newRWRunner(s, hotSet(q, poolSeed, rwHotSize, algoNames), seed, c), nil
	}
}

// Input sizes.
const (
	// distinctPerCell queries per (keywords, class) cell, times 10 cells
	// and 3 algorithms: 540 distinct pairs, over twice the cache, and
	// about what 2 clients play in a 40 s run on a 2-core host.
	distinctPerCell = 18
	// oracleEvery: one distinct request in this many is re-run in-process.
	oracleEvery = 20
	// poolSeed fixes the queries of the distinct list and the hot sets;
	// the workload seed orders the distinct list, draws hot-routed's Zipf
	// indexes and generates read-write's mutation trace. A hot set is a
	// few dozen queries whose costs vary tenfold, and a run plays the
	// distinct list about once, so drawing the queries from the workload
	// seed would make the seed, not the system, set the figures.
	poolSeed = 1
	// hotSize is the routed workloads' hot set: well inside the
	// 256-entry cache.
	hotSize = 24
	// rwHotSize is read-write's hot set, still inside the cache. Writes
	// keep invalidating it, so most hot reads are misses whose cost is
	// the query's own: a larger set averages over more queries and keeps
	// one seed's few expensive ones from setting the figures.
	rwHotSize = 96
)

// backwardAlgos is hot-routed-backward's algorithm rotation: the two
// algorithms docs/SERVING.md routes exactly per component and
// best-effort across components, so their routed answers are judged by
// the router's merge alone. hot-routed keeps bidirectional too, whose
// routed answers must also equal one unsharded banksd's.
var backwardAlgos = []string{"si-backward", "mi-backward"}

// endToEnd derives the gated metrics of an untraced run. rss_peak_mb is
// the 95th percentile of the resident-set samples taken while the
// workload ran: the peak without the single-sample jitter of GC timing.
func endToEnd(p *phase, setupS, rssMiB float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {setupS, "s"},
		"search_qps":    {p.qps(), "req/s"},
		"search_p50_ms": {median(p.search), "ms"},
		"rss_peak_mb":   {rssMiB, "MiB"},
	}
}

// report prints every end-to-end figure of the run with its sample
// count, including the workload-specific ones the gated set omits.
func report(workload string, p *phase) {
	fmt.Printf("workload %s: %.2f s measured, %d reads, %d attempted, %d failed (failed_frac %.4f), %d refused\n",
		workload, p.elapsed.Seconds(), p.reads, p.attempted, p.failed,
		float64(p.failed)/math.Max(1, float64(p.attempted)), p.rejected)
	for _, f := range p.failures {
		fmt.Println("  FAILED", f)
	}
	series := []struct {
		name string
		xs   []float64
		tail float64
	}{
		{"search", p.search, 0.95},
		{"search_only", p.searchOnly, 0.95},
		{"first_answer", p.first, 0.95},
		{"stream_total", p.streamAll, 0.95},
		{"read_your_writes", p.ryw, 0.95},
		{"mutate", p.mutate, 0.90},
		{"replica_lag", p.lag, 0.90},
		{"send_lag", p.late, 0.99},
		{"compact", p.compact, 0.5},
	}
	for _, s := range series {
		if len(s.xs) == 0 {
			continue
		}
		t := tailOf(s.xs, s.tail)
		note := ""
		if !t.ok() {
			note = fmt.Sprintf(" (only %d beyond p%g)", t.Beyond, s.tail*100)
		}
		fmt.Printf("  %-17s n=%-5d p50 %9.3f ms  p%g %9.3f ms%s\n", s.name, t.N, median(s.xs), s.tail*100, t.Value, note)
	}
	for _, a := range algoNames {
		if xs := p.coreMS[a]; len(xs) > 0 {
			fmt.Printf("  core %-13s n=%-5d p50 %9.3f ms (response stats)\n", a, len(xs), median(xs))
		}
	}
}

// rssEvery is the resident-set sampling period.
const rssEvery = 50 * time.Millisecond

// sampleRSS samples the process's resident set every rssEvery until the
// returned stop function is called; stop returns the samples in MiB.
func sampleRSS() (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		var xs []float64
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			xs = append(xs, readStatusMiB("VmRSS:"))
			select {
			case <-done:
				out <- xs
				return
			case <-t.C:
			}
		}
	}()
	return func() []float64 { close(done); return <-out }
}

// readStatusMiB reads one kB field of /proc/self/status in MiB.
func readStatusMiB(field string) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// printHost prints the host block the figures belong to.
func printHost() {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("host: cores %d, GOMAXPROCS %d, cpu %q, %s, %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), time.Now().UTC().Format("2006-01-02"))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
