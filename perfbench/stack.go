package main

// The serving stack under test, started in-process on loopback
// listeners: banksd's server.New per node, banksrouter's router.New over
// shards, and banks.OpenLive plus repl.StartFollower for the write path.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"banks"
	"banks/internal/datagen"
	"banks/internal/repl"
	"banks/internal/router"
	"banks/internal/server"
	"banks/internal/shard"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	URL  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close shuts the server down and waits for its serve loop to exit.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// node is one banksd: a DB, its engine, optional live overlay and
// follower, and the HTTP server.
type node struct {
	db   *banks.DB
	eng  *banks.Engine
	live *banks.Live
	fol  *repl.Follower
	srv  *server.Server
	http *listener
}

// startNode serves db through banksd's handler with the default engine
// (pool = GOMAXPROCS, 256-entry cache). It owns db from the call on,
// closing it on failure too.
func startNode(tr *Tracer, name string, db *banks.DB, live func(*banks.Engine) (*banks.Live, *repl.Follower, error)) (*node, error) {
	eng, err := banks.NewEngine(db, banks.EngineOptions{})
	if err != nil {
		db.Close()
		return nil, err
	}
	n := &node{db: db, eng: eng}
	if live != nil {
		if n.live, n.fol, err = live(eng); err != nil {
			db.Close()
			return nil, err
		}
	}
	n.srv, err = server.New(server.Config{
		Engine:   eng,
		DB:       db,
		Live:     n.live,
		Follower: n.fol,
		Tenants:  server.DefaultTenantConfig(),
		Dataset:  name,
	})
	if err != nil {
		n.close()
		return nil, err
	}
	if n.http, err = listen(tr.wrapHandler("banksd", n.srv.Handler())); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func (n *node) close() {
	if n.http != nil {
		n.srv.BeginDrain()
		n.http.close()
	}
	if n.fol != nil {
		n.fol.Close()
	}
	if n.live != nil {
		n.live.Close()
	}
	n.db.Close()
}

// stack is one workload's running system plus the benchmark's reference
// copies of the data.
type stack struct {
	dir string
	ds  *datagen.Dataset
	// built is the from-scratch DB: the in-process oracle and the
	// ladder's base layer.
	built *banks.DB
	// front is the URL clients send reads to.
	front string
	// nodes are the serving banksd processes; primary and follower are
	// set on read-write, router and ref on hot-routed.
	nodes             []*node
	primary, follower *node
	rt                *router.Router
	rtHTTP            *listener
	// ref is an unsharded banksd over the same data: the routed oracle's
	// reference (started outside the timed set-up).
	ref *node
}

func (s *stack) close() {
	if s.rtHTTP != nil {
		s.rtHTTP.close()
	}
	if s.rt != nil {
		s.rt.Close()
	}
	// Reverse start order: a follower stops tailing before its primary
	// shuts down, so no long-poll holds the primary's listener open.
	for i := len(s.nodes) - 1; i >= 0; i-- {
		s.nodes[i].close()
	}
	if s.ref != nil {
		s.ref.close()
	}
	os.RemoveAll(s.dir)
}

// timer accumulates named set-up phases.
type timer struct {
	phases map[string]float64
	last   time.Time
}

func newTimer() *timer { return &timer{phases: map[string]float64{}, last: time.Now()} }

// mark charges the time since the previous mark to phase.
func (t *timer) mark(phase string) {
	now := time.Now()
	t.phases[phase] += float64(now.Sub(t.last)) / float64(time.Millisecond)
	t.last = now
}

// skip restarts the clock without charging anything (benchmark-only
// work such as oracle references).
func (t *timer) skip() { t.last = time.Now() }

func (t *timer) total() float64 {
	var s float64
	for _, v := range t.phases {
		s += v
	}
	return s
}

// newStack generates and builds the dataset into a fresh directory.
func newStack(dir string, t *timer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	var err error
	if s.ds, err = datagen.DBLP(datagen.DefaultDBLP(datasetFactor)); err != nil {
		return nil, fmt.Errorf("datagen: %w", err)
	}
	t.mark("datagen")
	if s.built, err = banks.Build(s.ds.DB, banks.BuildOptions{}); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	t.mark("build")
	return s, nil
}

// writeAndOpen writes the built DB as a snapshot at path and opens it.
func (s *stack) writeAndOpen(path string, t *timer) (*banks.DB, error) {
	if err := s.built.WriteSnapshotFile(path); err != nil {
		return nil, err
	}
	t.mark("store.snapshot_write")
	db, err := banks.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	t.mark("store.snapshot_open")
	return db, nil
}

// setupDistinct: one banksd over the snapshot.
func setupDistinct(dir string, tr *Tracer, t *timer) (*stack, error) {
	s, err := newStack(dir, t)
	if err != nil {
		return nil, err
	}
	db, err := s.writeAndOpen(filepath.Join(dir, "dblp.snap"), t)
	if err != nil {
		s.close()
		return nil, err
	}
	n, err := startNode(tr, "dblp", db, nil)
	if err != nil {
		s.close()
		return nil, err
	}
	s.nodes = append(s.nodes, n)
	s.front = n.http.URL
	t.mark("servers")
	return s, nil
}

// setupHotRouted: banksrouter over two component-closed shards, one
// banksd each, plus the unsharded reference banksd (untimed).
func setupHotRouted(dir string, tr *Tracer, t *timer) (*stack, error) {
	s, err := newStack(dir, t)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*stack, error) { s.close(); return nil, err }
	base := filepath.Join(dir, "dblp.snap")
	const shards = 2
	if _, err := shard.WriteFiles(base, shards, s.built.Graph, s.built.Index, s.built.Mapping, s.built.EdgeTypes); err != nil {
		return fail(err)
	}
	t.mark("shard.partition")
	var topology [][]string
	for i := 0; i < shards; i++ {
		db, err := banks.OpenSnapshot(shard.FilePath(base, i, shards))
		if err != nil {
			return fail(err)
		}
		t.mark("store.snapshot_open")
		n, err := startNode(tr, fmt.Sprintf("dblp shard %d/%d", i, shards), db, nil)
		if err != nil {
			return fail(err)
		}
		t.mark("servers")
		s.nodes = append(s.nodes, n)
		topology = append(topology, []string{n.http.URL})
	}
	s.rt, err = router.New(router.Config{
		Shards: topology,
		Client: &http.Client{Transport: tr.transport("attempt", newTransport())},
	})
	if err != nil {
		return fail(err)
	}
	if s.rtHTTP, err = listen(tr.wrapHandler("router", s.rt.Handler())); err != nil {
		return fail(err)
	}
	s.front = s.rtHTTP.URL
	if err := waitHealthy(s.front); err != nil {
		return fail(err)
	}
	t.mark("servers")

	refDB, err := s.writeAndOpen(filepath.Join(dir, "ref.snap"), newTimer())
	if err != nil {
		return fail(err)
	}
	if s.ref, err = startNode(tr, "dblp reference", refDB, nil); err != nil {
		return fail(err)
	}
	t.skip()
	return s, nil
}

// waitHealthy polls the router's /statusz until every replica is healthy.
func waitHealthy(front string) error {
	c := newClient(newTransport())
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st struct {
			AllHealthy bool `json:"all_healthy"`
		}
		if err := c.getJSON(context.Background(), front+"/statusz", &st); err == nil && st.AllHealthy {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("router replicas never became healthy")
}

// walPolicy is banksd's default -wal-fsync policy.
const walPolicy = "always"

// setupReadWrite: a live primary with a WAL, and one follower
// bootstrapped over HTTP that tails it.
func setupReadWrite(dir string, tr *Tracer, t *timer) (*stack, error) {
	s, err := newStack(dir, t)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*stack, error) { s.close(); return nil, err }
	policy, err := banks.ParseWALFsyncPolicy(walPolicy)
	if err != nil {
		return fail(err)
	}
	pdir, fdir := filepath.Join(dir, "primary"), filepath.Join(dir, "follower")
	for _, d := range []string{pdir, fdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fail(err)
		}
	}
	psnap := filepath.Join(pdir, "dblp.snap")
	db, err := s.writeAndOpen(psnap, t)
	if err != nil {
		return fail(err)
	}
	s.primary, err = startNode(tr, "primary", db, func(eng *banks.Engine) (*banks.Live, *repl.Follower, error) {
		l, err := banks.OpenLive(eng, banks.LiveOptions{SnapshotPath: psnap, WALPath: psnap + ".wal", WALFsync: policy})
		return l, nil, err
	})
	if err != nil {
		return fail(err)
	}
	s.nodes = append(s.nodes, s.primary)
	s.front = s.primary.http.URL
	t.mark("servers")

	if s.follower, err = startFollower(tr, s.front, filepath.Join(fdir, "dblp.snap"), policy); err != nil {
		return fail(err)
	}
	s.nodes = append(s.nodes, s.follower)
	t.mark("repl.bootstrap")
	return s, nil
}

// startFollower bootstraps a follower from primary over HTTP and starts
// tailing its log, as `banksd -live -wal -follow` does on first start.
func startFollower(tr *Tracer, primary, snap string, policy banks.WALFsyncPolicy) (*node, error) {
	dest, _, err := repl.FetchSnapshot(context.Background(), nil, primary, snap)
	if err != nil {
		return nil, fmt.Errorf("follower bootstrap: %w", err)
	}
	db, err := banks.OpenSnapshot(dest)
	if err != nil {
		return nil, err
	}
	n, err := startNode(tr, "follower", db, func(eng *banks.Engine) (*banks.Live, *repl.Follower, error) {
		l, err := banks.OpenLive(eng, banks.LiveOptions{SnapshotPath: snap, WALPath: snap + ".wal", WALFsync: policy})
		if err != nil {
			return nil, nil, err
		}
		f, err := repl.StartFollower(repl.FollowerConfig{Primary: primary, Target: l, BasePath: snap})
		if err != nil {
			l.Close()
			return nil, nil, err
		}
		return l, f, nil
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}
