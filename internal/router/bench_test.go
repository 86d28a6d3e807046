package router_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"banks"
	"banks/internal/datagen"
	"banks/internal/router"
	"banks/internal/server"
	"banks/internal/shard"
)

// routedHitQueries is the hot set of BenchmarkRoutedHit: 2-3 keyword
// queries over the DBLP generator's vocabulary, each under both
// backward algorithms (the ones the router merges best-effort across
// components, as perfbench's hot-routed-backward workload does).
var routedHitQueries = []string{
	"database transaction", "index spatial", "storage optimization",
	"concurrency recovery", "graph mining", "database index storage",
	"transaction recovery paper", "mining author conference",
}

// BenchmarkRoutedHit measures one routed /v1/search cache hit end to
// end: banksrouter over two shard banksd servers (httptest listeners over
// real shard snapshots of DBLP at factor 0.05), caches warmed with the
// hot set, one client cycling through it. Every layer runs in this
// process, so allocs/op and B/op cover router, shards and client.
func BenchmarkRoutedHit(b *testing.B) {
	ds, err := datagen.DBLP(datagen.DefaultDBLP(0.05))
	if err != nil {
		b.Fatal(err)
	}
	built, err := banks.Build(ds.DB, banks.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	base := filepath.Join(b.TempDir(), "dblp.snap")
	if err := built.WriteSnapshotFile(base); err != nil {
		b.Fatal(err)
	}
	const shards = 2
	if _, err := shard.WriteFiles(base, shards, built.Graph, built.Index, built.Mapping, built.EdgeTypes); err != nil {
		b.Fatal(err)
	}
	var topo [][]string
	for s := 0; s < shards; s++ {
		db, err := banks.OpenSnapshot(shard.FilePath(base, s, shards))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { db.Close() })
		eng, err := banks.NewEngine(db, banks.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng, DB: db, Dataset: fmt.Sprintf("shard %d", s)})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		topo = append(topo, []string{ts.URL})
	}
	rt, err := router.New(router.Config{Shards: topo, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rt.Close() })
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(front.Close)

	var urls []string
	for _, q := range routedHitQueries {
		for _, algo := range []string{"si-backward", "mi-backward"} {
			urls = append(urls, front.URL+"/v1/search?k=10&algo="+algo+"&q="+url.QueryEscape(q))
		}
	}
	get := func(u string) {
		resp, err := http.Get(u)
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: HTTP %d %v", u, resp.StatusCode, err)
		}
	}
	// Two rounds: the first fills the shard caches, the second is the
	// first hit, which memoizes the encoded answers.
	for round := 0; round < 2; round++ {
		for _, u := range urls {
			get(u)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(urls[i%len(urls)])
	}
}
