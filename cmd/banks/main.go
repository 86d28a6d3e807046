// Command banks runs interactive keyword search over a generated dataset,
// the way the original BANKS web demo worked.
//
// Usage:
//
//	banks [-dataset dblp|imdb|patents] [-factor 0.25] [-algo bidirectional]
//	      [-k 10] [-near] [-stream] [-timeout 200ms] [-parallel 4]
//	      [-snapshot dblp.snap] [-query "gray transaction"]
//
// -stream prints each answer the moment the search outputs it (the
// paper's §5.2 interactive delivery) instead of waiting for the full
// top-k, and reports the first-answer latency alongside the total.
//
// -parallel widens the pool that runs queries concurrently.
//
// Without -query it reads one query per line from standard input. A -query
// value may contain several queries separated by ';' — tree-search queries
// are executed as one batch fanned out across -parallel workers; with -near
// or -stream they run sequentially (near queries have no batch API yet, and
// interleaving several streams would garble the incremental output).
//
// -snapshot serves queries from a memory-mapped snapshot file (see cmd/
// datagen -out): if the file exists it is opened without any rebuild; if
// it does not, the dataset is built from -dataset/-factor and saved there
// for next time. Snapshot-served answers are bit-identical to built ones,
// but nodes are labeled "table[row]" (source row text is not persisted).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"banks"
	"banks/internal/datagen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("banks: ")

	dataset := flag.String("dataset", "dblp", "dataset family: dblp, imdb or patents")
	factor := flag.Float64("factor", 0.25, "dataset scale factor (1 ≈ 180k tuples)")
	algo := flag.String("algo", string(banks.Bidirectional), "search algorithm: bidirectional, si-backward or mi-backward")
	k := flag.Int("k", 10, "answers to return")
	near := flag.Bool("near", false, "run a near query (activation-ranked nodes) instead of tree search")
	stream := flag.Bool("stream", false, "print answers as they are output (incremental delivery with first-answer latency)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none); expired queries return a truncated partial top-k")
	parallel := flag.Int("parallel", 0, "worker-pool width for batch queries (0 = GOMAXPROCS)")
	snapshot := flag.String("snapshot", "", "open this snapshot file (building and saving it first if absent)")
	query := flag.String("query", "", "run a single query (or several separated by ';') and exit (default: read queries from stdin)")
	flag.Parse()

	db, err := openOrBuild(*snapshot, *dataset, *factor)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: *parallel, DefaultTimeout: *timeout})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s ready: %d nodes, %d edges, %d terms (%d workers)\n",
		*dataset, db.Graph.NumNodes(), db.Graph.NumEdges(), db.Index.NumTerms(), eng.Workers())

	opts := banks.Options{K: *k}
	ctx := context.Background()

	printResult := func(res *banks.Result, elapsed time.Duration) {
		trunc := ""
		if res.Stats.Truncated {
			trunc = " [truncated by deadline]"
		}
		fmt.Printf("%d answers in %v (explored %d, touched %d)%s:\n",
			len(res.Answers), elapsed.Round(time.Microsecond),
			res.Stats.NodesExplored, res.Stats.NodesTouched, trunc)
		for i, a := range res.Answers {
			fmt.Printf("--- answer %d ---\n%s", i+1, db.Explain(a))
		}
	}

	// runStream delivers answers as the search outputs them, printing the
	// first-answer latency — the number streaming exists to shrink.
	runStream := func(q string, start time.Time) {
		st, err := eng.SearchStream(ctx, q, banks.Algorithm(*algo), opts, banks.StreamOptions{})
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		n := 0
		for ev := range st.Answers() {
			n++
			if n == 1 {
				fmt.Printf("first answer in %v (output at +%v into the search)\n",
					time.Since(start).Round(time.Microsecond), ev.OutputAt.Round(time.Microsecond))
			}
			fmt.Printf("--- answer %d (+%v) ---\n%s", ev.Rank, ev.OutputAt.Round(time.Microsecond), db.Explain(ev.Answer))
		}
		tr, err := st.Trailer()
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		suffix := ""
		if tr.Truncated {
			suffix = " [truncated by deadline]"
		}
		if tr.Cached {
			suffix += " [replayed from cache]"
		}
		fmt.Printf("%d answers in %v (explored %d, touched %d)%s\n",
			n, time.Since(start).Round(time.Microsecond),
			tr.Stats.NodesExplored, tr.Stats.NodesTouched, suffix)
	}

	runOne := func(q string) {
		q = strings.TrimSpace(q)
		if q == "" {
			return
		}
		start := time.Now()
		if *near {
			res, stats, err := eng.Near(ctx, q, opts)
			if err != nil {
				fmt.Printf("error: %v\n", err)
				return
			}
			trunc := ""
			if stats.Truncated {
				trunc = " [truncated by deadline]"
			}
			fmt.Printf("%d nodes in %v (explored %d)%s:\n",
				len(res), time.Since(start).Round(time.Microsecond), stats.NodesExplored, trunc)
			for i, r := range res {
				fmt.Printf("%2d. a=%.5f %s\n", i+1, r.Activation, db.NodeLabel(r.Node))
			}
			return
		}
		if *stream {
			runStream(q, start)
			return
		}
		res, err := eng.Search(ctx, q, banks.Algorithm(*algo), opts)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		printResult(res, time.Since(start))
	}

	runBatch := func(queries []string) {
		batch := make([]banks.BatchQuery, len(queries))
		for i, q := range queries {
			batch[i] = banks.BatchQuery{Query: q, Algo: banks.Algorithm(*algo), Opts: opts}
		}
		start := time.Now()
		results, errs := eng.SearchBatch(ctx, batch)
		fmt.Printf("batch of %d queries in %v across %d workers\n",
			len(batch), time.Since(start).Round(time.Microsecond), eng.Workers())
		for i := range results {
			fmt.Printf("=== query %d: %q ===\n", i+1, queries[i])
			if errs[i] != nil {
				fmt.Printf("error: %v\n", errs[i])
				continue
			}
			printResult(results[i], results[i].Stats.Duration)
		}
	}

	if *query != "" {
		var queries []string
		for _, q := range strings.Split(*query, ";") {
			if q = strings.TrimSpace(q); q != "" {
				queries = append(queries, q)
			}
		}
		switch {
		case len(queries) == 0:
			log.Fatal("no queries in -query")
		case len(queries) == 1 || *near || *stream:
			for _, q := range queries {
				runOne(q)
			}
		default:
			runBatch(queries)
		}
		return
	}
	fmt.Println("enter keyword queries, one per line (ctrl-D to exit):")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		runOne(sc.Text())
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

// openOrBuild serves the DB from a snapshot when one is requested and
// present; otherwise it builds from the generated dataset (and, with
// -snapshot set, saves the snapshot for the next run).
func openOrBuild(snapshot, dataset string, factor float64) (*banks.DB, error) {
	if snapshot != "" {
		if _, err := os.Stat(snapshot); err == nil {
			start := time.Now()
			db, err := banks.OpenSnapshot(snapshot)
			if err != nil {
				return nil, err
			}
			fmt.Printf("opened snapshot %s in %v (zero-copy=%v)\n",
				snapshot, time.Since(start).Round(time.Microsecond), db.SnapshotZeroCopy())
			return db, nil
		}
	}
	db, err := buildDataset(dataset, factor)
	if err != nil {
		return nil, err
	}
	if snapshot != "" {
		if err := db.WriteSnapshotFile(snapshot); err != nil {
			return nil, err
		}
		fmt.Printf("saved snapshot %s\n", snapshot)
	}
	return db, nil
}

func buildDataset(name string, factor float64) (*banks.DB, error) {
	var (
		ds  *datagen.Dataset
		err error
	)
	switch name {
	case "dblp":
		ds, err = datagen.DBLP(datagen.DefaultDBLP(factor))
	case "imdb":
		ds, err = datagen.IMDB(datagen.DefaultIMDB(factor))
	case "patents":
		ds, err = datagen.Patents(datagen.DefaultPatents(factor))
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	if err != nil {
		return nil, err
	}
	return banks.Build(ds.DB, banks.BuildOptions{})
}
