// Tests for the serving-introspection surface: activity counters,
// in-flight gauge, and the Quiesce drain barrier.
package engine

import (
	"context"
	"testing"
	"time"

	"banks/internal/core"
)

func TestCounters(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{Workers: 2, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if c := e.Counters(); c != (Counters{}) {
		t.Fatalf("fresh engine has non-zero counters: %+v", c)
	}

	if _, err := e.Search(context.Background(), Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(context.Background(), Query{Terms: []string{"alpha"}, Algo: core.AlgoBidirectional,
		Opts: core.Options{K: -1}}); err == nil {
		t.Fatal("negative K accepted")
	}
	if _, _, err := e.Near(context.Background(), []string{"alpha", "omega"}, core.Options{K: 3}); err != nil {
		t.Fatal(err)
	}

	c := e.Counters()
	if c.Searches != 2 {
		t.Errorf("Searches = %d, want 2 (valid + invalid-options)", c.Searches)
	}
	if c.Nears != 1 {
		t.Errorf("Nears = %d, want 1", c.Nears)
	}
	if c.Errored != 1 {
		t.Errorf("Errored = %d, want 1", c.Errored)
	}
	if c.Truncated != 0 {
		t.Errorf("Truncated = %d, want 0", c.Truncated)
	}

	// An already-expired deadline ends in exactly one of two ways — the
	// slot wait fails (error) or the search starts and truncates — and
	// the counters must account for it either way.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	res, err := e.Search(ctx, Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional})
	c = e.Counters()
	if c.Searches != 3 {
		t.Errorf("Searches = %d, want 3", c.Searches)
	}
	switch {
	case err != nil:
		if c.Errored != 2 {
			t.Errorf("Errored = %d after slot-wait expiry, want 2", c.Errored)
		}
	case !res.Stats.Truncated:
		t.Error("expired deadline produced an untruncated result")
	case c.Truncated != 1:
		t.Errorf("Truncated = %d after truncated result, want 1", c.Truncated)
	}
}

func TestInFlightAndQuiesce(t *testing.T) {
	g, ix := testGraph(t, 16)
	e, err := New(g, ix, Options{Workers: 2, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.InFlight(); got != 0 {
		t.Fatalf("idle InFlight = %d", got)
	}
	if err := e.Quiesce(context.Background()); err != nil {
		t.Fatalf("Quiesce on idle engine: %v", err)
	}

	// Occupy one slot the way a running query would and verify Quiesce
	// waits for it (white-box: the semaphore is the in-flight ledger).
	e.sem <- struct{}{}
	if got := e.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d with one slot held, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Quiesce(ctx); err == nil {
		t.Fatal("Quiesce returned while a slot was held")
	}
	// Quiesce must give back the slots it did manage to grab.
	if got := e.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d after failed Quiesce, want 1 (no leaked slots)", got)
	}
	<-e.sem
	if err := e.Quiesce(context.Background()); err != nil {
		t.Fatalf("Quiesce after release: %v", err)
	}
	if got := e.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after Quiesce, want 0", got)
	}

	// Queries proceed normally after a Quiesce cycle.
	if _, err := e.Search(context.Background(), Query{Terms: []string{"alpha", "omega"}, Algo: core.AlgoBidirectional}); err != nil {
		t.Fatal(err)
	}
}
