package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"banks"
)

// BenchmarkStreamHit measures one /v1/search/stream cache hit on banksd
// over HTTP (DBLP at factor 0.05, k=10), the client reading the whole
// body: the replay of a memoized result, written with one flush.
func BenchmarkStreamHit(b *testing.B) {
	db := testDB(b)
	eng, err := banks.NewEngine(db, banks.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, DB: db, Tenants: generousTenants()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var urls []string
	for _, q := range []string{"database transaction", "index spatial storage", "graph mining"} {
		for _, algo := range []string{"bidirectional", "si-backward", "mi-backward"} {
			urls = append(urls, ts.URL+"/v1/search/stream?k=10&algo="+algo+"&q="+strings.ReplaceAll(q, " ", "+"))
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
	// The first round fills the cache, the second memoizes.
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
