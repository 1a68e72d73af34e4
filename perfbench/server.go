package main

import (
	"context"
	"net"
	"net/http"
	"time"

	"repro/campaign"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/service"
)

// node is one in-process dlsimd with its defaults: an in-memory result
// store behind the hit/miss counter, a 64-deep queue, one campaign at a
// time, no journal, auth, rate limits or metrics — served on a loopback
// listener.
type node struct {
	mgr     *jobs.Manager
	counted *cache.Counting
	store   *timedStore // nil unless traced
	routes  *routeStats // nil unless traced
	srv     *http.Server
	url     string
	served  chan error
}

// nodeOptions tunes a node for one workload.
type nodeOptions struct {
	workers int                             // runs per campaign; 0 = GOMAXPROCS as in dlsimd
	tr      *tracer                         // non-nil: wrap the store and the routes
	wrap    func(http.Handler) http.Handler // outermost handler wrapper, e.g. fault injection
}

func startNode(opts nodeOptions) (*node, error) {
	n := &node{counted: cache.NewCounting(cache.NewMemory()), served: make(chan error, 1)}
	var store cache.Store = n.counted
	if opts.tr != nil {
		n.store = &timedStore{inner: n.counted, tr: opts.tr}
		store = n.store
	}
	n.mgr = jobs.NewManager(jobs.Config{Store: store, QueueDepth: 64, Concurrency: 1, Workers: opts.workers})
	api := service.New(n.mgr).Handler()
	root := http.NewServeMux()
	root.Handle("/v1", api)
	root.Handle("/v1/", api)
	root.Handle("/healthz", api)
	var h http.Handler = root
	if opts.tr != nil {
		n.routes = &routeStats{}
		h = wrapRoutes(h, n.routes, opts.tr)
	}
	if opts.wrap != nil {
		h = opts.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.mgr.Close()
		return nil, err
	}
	n.srv = &http.Server{Handler: h}
	n.url = "http://" + ln.Addr().String()
	go func() { n.served <- n.srv.Serve(ln) }()
	return n, nil
}

// close shuts the node down and waits for its server and job workers.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // a timeout leaves only idle connections behind
	<-n.served
	n.mgr.Close()
}

// jobTimes are one node's job snapshots created at or after since.
func (n *node) jobTimes(since time.Time) []jobs.Snapshot {
	var out []jobs.Snapshot
	for _, s := range n.mgr.List() {
		if !s.CreatedAt.Before(since) && s.StartedAt != nil && s.FinishedAt != nil {
			out = append(out, s)
		}
	}
	return out
}

// verifyStreams checks every streamed result against an in-process
// execution of the same spec: got lists the streamed digests of
// specs[i] under i, and each spec is executed once for reference.
func verifyStreams(ctx context.Context, o *outcome, what string, specs []campaign.Spec, got map[int][]string, workers int) {
	for i, spec := range specs {
		streams := got[i]
		if len(streams) == 0 {
			continue
		}
		want, err := localDigest(ctx, spec, workers)
		if err != nil {
			o.chk.fail(err)
			continue
		}
		for _, d := range streams {
			o.chk.check(d == want, "%s: spec %d streamed %s, an in-process execution gives %s", what, i, d, want)
		}
	}
}

// localDigest is the SHA-256 of the spec's JSONL stream executed in
// process, as `dlsim -spec ... -out x.jsonl` writes it.
func localDigest(ctx context.Context, spec campaign.Spec, workers int) (string, error) {
	spec.Backend = ""
	hw := newHashWriter()
	_, err := spec.Execute(ctx, engine.ExecConfig{Workers: workers, Sinks: []engine.Sink{engine.NewJSONLSink(hw)}})
	return hw.sum(), err
}
