package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	storypivot "repro"
	"repro/internal/align"
	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/httpx"
	"repro/internal/qcache"
	"repro/internal/server"
)

// serverOptions are the pipeline settings storypivot-server starts with
// by default: refinement on and the seed knowledge base.
func serverOptions(extra ...storypivot.Option) []storypivot.Option {
	return append([]storypivot.Option{
		storypivot.WithRefinement(true),
		storypivot.WithKnowledgeBase(storypivot.SeedKnowledgeBase()),
	}, extra...)
}

// listener is an HTTP handler served on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{
		srv:  httpx.NewServer(ln.Addr().String(), h, httpx.ServerConfig{}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// node is one storypivot server wired like storypivot-server's defaults:
// 30 s query cache and the httpx stack with its admission gate.
type node struct {
	srv  *server.Server
	http *listener
	sink *visSink
	dir  string // store directory to remove on close, if any
}

func newNode(opts []storypivot.Option, dir string) (*node, error) {
	s, err := server.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("building server: %w", err)
	}
	s.EnableCache(qcache.Config{TTL: 30 * time.Second, Shards: 16, MaxEntries: 4096})
	h := s.HandlerWith(httpx.Config{
		MaxInflight:    256,
		RetryAfter:     time.Second,
		RequestTimeout: 30 * time.Second,
		MaxBodyBytes:   8 << 20,
	})
	l, err := serve(h)
	if err != nil {
		s.Close()
		return nil, err
	}
	return &node{srv: s, http: l, dir: dir}, nil
}

func (n *node) pipeline() *storypivot.Pipeline { return n.srv.Pipeline() }

// preload ingests copies of snippets; the corpus itself is never handed
// to the program, so repeated set-ups start from identical inputs.
func (n *node) preload(snippets []*event.Snippet) error {
	p := n.pipeline()
	for _, sn := range snippets {
		if err := p.Ingest(sn.Clone()); err != nil {
			return fmt.Errorf("preloading snippet %d: %w", sn.ID, err)
		}
	}
	return nil
}

func (n *node) close() {
	if n.sink != nil {
		n.sink.stop()
	}
	n.http.close()
	n.srv.Close()
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
}

// routedSystem is in-process workers behind a cluster.Router.
type routedSystem struct {
	workers []*node
	router  *cluster.Router
	http    *listener
	owner   map[event.SourceID]int
}

// newRouted starts the workers and the router, pinning sources
// alternately to w0 and w1 so each owns half.
func newRouted(sources []event.SourceID, workers int) (*routedSystem, error) {
	rs := &routedSystem{owner: make(map[event.SourceID]int)}
	pins := make(map[string]string)
	for i, src := range sources {
		rs.owner[src] = i % workers
		pins[string(src)] = fmt.Sprintf("w%d", i%workers)
	}
	var members []cluster.Member
	for w := 0; w < workers; w++ {
		n, err := newNode(serverOptions(), "")
		if err != nil {
			rs.close()
			return nil, err
		}
		rs.workers = append(rs.workers, n)
		members = append(members, cluster.Member{Name: fmt.Sprintf("w%d", w), URL: n.http.url})
	}
	rt, err := cluster.NewRouter(cluster.Config{Members: members, Pins: pins})
	if err != nil {
		rs.close()
		return nil, fmt.Errorf("building router: %w", err)
	}
	rs.router = rt
	rt.Start()
	l, err := serve(rt.HandlerWith(httpx.Config{
		MaxInflight:    256,
		RetryAfter:     time.Second,
		RequestTimeout: 30 * time.Second,
		MaxBodyBytes:   8 << 20,
	}))
	if err != nil {
		rs.close()
		return nil, err
	}
	rs.http = l
	return rs, nil
}

func (rs *routedSystem) close() {
	if rs.http != nil {
		rs.http.close()
	}
	if rs.router != nil {
		rs.router.Close()
	}
	for _, n := range rs.workers {
		n.close()
	}
}

// visSink observes a node's alignment publishes to time when ingested
// snippets become visible. Publish runs under the engine mutex, so it
// only records the time and the result; containment is checked by the
// sink's own goroutine, which then drops the result.
type visSink struct {
	mu      sync.Mutex
	queue   []publish
	pending []*pendingIngest
	wake    chan struct{}
	quit    chan struct{}
	done    chan struct{}
	once    sync.Once
	// latest holds the IDs of the newest result's integrated stories,
	// for reads that pick a story to open.
	latest []uint64
}

type publish struct {
	at  time.Time
	res *align.Result
}

// pendingIngest is an ingested snippet not yet seen in a publish.
type pendingIngest struct {
	src     event.SourceID
	id      event.SnippetID
	due     time.Time
	sent    time.Time
	visible time.Time // zero until seen
}

func newVisSink() *visSink {
	v := &visSink{wake: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})}
	go v.run()
	return v
}

// Publish implements stream.ResultSink.
func (v *visSink) Publish(res *align.Result) {
	now := time.Now()
	v.mu.Lock()
	v.queue = append(v.queue, publish{at: now, res: res})
	v.mu.Unlock()
	select {
	case v.wake <- struct{}{}:
	default:
	}
}

// track registers an ingest about to be sent.
func (v *visSink) track(pi *pendingIngest) {
	v.mu.Lock()
	v.pending = append(v.pending, pi)
	v.mu.Unlock()
}

func (v *visSink) run() {
	defer close(v.done)
	for {
		select {
		case <-v.wake:
			v.drain()
		case <-v.quit:
			v.drain()
			return
		}
	}
}

// drain checks queued publishes, oldest first, against the ingests
// still pending.
func (v *visSink) drain() {
	v.mu.Lock()
	q := v.queue
	v.queue = nil
	v.mu.Unlock()
	for _, p := range q {
		v.mu.Lock()
		pend := append([]*pendingIngest(nil), v.pending...)
		v.mu.Unlock()
		seen := make(map[*pendingIngest]bool)
		for _, pi := range pend {
			if !p.at.Before(pi.sent) && contains(p.res, pi.src, pi.id) {
				pi.visible = p.at
				seen[pi] = true
			}
		}
		ids := storyIDs(p.res)
		v.mu.Lock()
		kept := v.pending[:0]
		for _, pi := range v.pending {
			if !seen[pi] {
				kept = append(kept, pi)
			}
		}
		v.pending = kept
		v.latest = ids
		v.mu.Unlock()
	}
}

// latestIDs returns the newest result's integrated story IDs.
func (v *visSink) latestIDs() []uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.latest
}

// stop processes everything published so far and ends the sink's
// goroutine; pendingIngest.visible may be read once it returns.
func (v *visSink) stop() {
	v.once.Do(func() { close(v.quit) })
	<-v.done
}

// contains reports whether the result places the snippet in a story.
func contains(res *align.Result, src event.SourceID, id event.SnippetID) bool {
	for _, is := range res.Integrated {
		for _, m := range is.Members {
			if m.Source != src {
				continue
			}
			for _, sn := range m.Snippets {
				if sn.ID == id {
					return true
				}
			}
		}
	}
	return false
}

// storyIDs lists the result's integrated story IDs in ascending order.
// Reads rank stories by popularity in this order, which has nothing to
// do with a story's size, so the hottest reads are not always the
// heaviest ones.
func storyIDs(res *align.Result) []uint64 {
	out := make([]uint64, len(res.Integrated))
	for i, is := range res.Integrated {
		out[i] = uint64(is.ID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// partition maps every snippet of the result to its integrated story.
// Integrated IDs are member story IDs, which are unique across sources,
// so partitions of several workers can share one map.
func partition(res *align.Result, into map[uint64]uint64) {
	for _, is := range res.Integrated {
		for _, m := range is.Members {
			for _, sn := range m.Snippets {
				into[uint64(sn.ID)] = uint64(is.ID)
			}
		}
	}
}
