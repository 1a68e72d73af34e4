package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The traced run times each layer from outside, around calls into its
// public interfaces: a wrapping backend (engine → sim), a wrapping store
// (cache), a per-route handler wrapper (service) and a wrapping Doer
// (client). Every wrapper forwards the optional interfaces the program
// probes for (RunnerBackend, Rebinder, http.Flusher), so the traced
// program stays on the same execution path as the untraced one.

// span is one timed call at a layer boundary. Trace is the pass the
// call belongs to: every layer span of a traced pass lies inside that
// pass's "pass" span, so a layer's self time is its duration less the
// part its nested spans cover. Times are nanoseconds since the tracer
// started.
type span struct {
	Layer string `json:"layer"`
	Trace int64  `json:"trace"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; further spans are counted
// as dropped. Layer accumulators are exact regardless.
const maxSpans = 200_000

// tracer keeps spans in memory until write, which runs once at exit.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
	trace   atomic.Int64 // index of the traced pass running now
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores the span [start, end) of layer under the current trace.
func (t *tracer) record(layer string, start, end time.Time) {
	s := span{Layer: layer, Trace: t.trace.Load(), Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write dumps every span as JSON Lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timing accumulates the count and total duration of calls.
type timing struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (t *timing) add(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// ---- engine and sim: a wrapping backend ----

// largeP is the PE count from which a run counts as large-p: the paper's
// grid has p ∈ {2, 8, 64} below and {256, 1024} at or above it.
const largeP = 256

// backendStats accumulates what the traced backend observed.
type backendStats struct {
	small, large timing // Runner.Run durations by PE count
	ops          atomic.Int64
	draws        atomic.Int64 // workload ChunkTime calls
}

// backendTotals is a point-in-time copy of backendStats; passes
// difference two copies.
type backendTotals struct {
	smallN, smallNs, largeN, largeNs, ops, draws int64
}

func (s *backendStats) totals() backendTotals {
	return backendTotals{
		smallN: s.small.n.Load(), smallNs: s.small.ns.Load(),
		largeN: s.large.n.Load(), largeNs: s.large.ns.Load(),
		ops: s.ops.Load(), draws: s.draws.Load(),
	}
}

func (a backendTotals) sub(b backendTotals) backendTotals {
	return backendTotals{
		smallN: a.smallN - b.smallN, smallNs: a.smallNs - b.smallNs,
		largeN: a.largeN - b.largeN, largeNs: a.largeNs - b.largeNs,
		ops: a.ops - b.ops, draws: a.draws - b.draws,
	}
}

func (a backendTotals) add(b backendTotals) backendTotals {
	return backendTotals{
		smallN: a.smallN + b.smallN, smallNs: a.smallNs + b.smallNs,
		largeN: a.largeN + b.largeN, largeNs: a.largeNs + b.largeNs,
		ops: a.ops + b.ops, draws: a.draws + b.draws,
	}
}

func (a backendTotals) runs() int64   { return a.smallN + a.largeN }
func (a backendTotals) busyNs() int64 { return a.smallNs + a.largeNs }

// tracedBackend wraps a registered backend under its own name. Specs
// select it by name, so the engine's registry, validation and pipeline
// are exercised exactly as for the wrapped backend.
type tracedBackend struct {
	name  string
	inner engine.RunnerBackend
	tr    atomic.Pointer[tracer]
	stats backendStats
}

// tracedBackends maps wrapped backend names to their registered tracing
// wrappers; registration happens once per process.
var (
	tracedMu       sync.Mutex
	tracedBackends = map[string]*tracedBackend{}
)

// traceBackend registers (once) and returns the tracing wrapper of the
// named backend, bound to tr.
func traceBackend(name string, tr *tracer) (*tracedBackend, error) {
	tracedMu.Lock()
	defer tracedMu.Unlock()
	if b, ok := tracedBackends[name]; ok {
		b.tr.Store(tr)
		return b, nil
	}
	be, err := engine.New(name)
	if err != nil {
		return nil, err
	}
	rb, ok := be.(engine.RunnerBackend)
	if !ok {
		return nil, fmt.Errorf("backend %s has no Runner path; tracing it would change the execution path", name)
	}
	b := &tracedBackend{name: "bench-traced-" + name, inner: rb}
	b.tr.Store(tr)
	engine.Register(b)
	tracedBackends[name] = b
	return b, nil
}

// Name implements engine.Backend.
func (b *tracedBackend) Name() string { return b.name }

// Run implements engine.Backend (the per-run fallback path).
func (b *tracedBackend) Run(ctx context.Context, spec engine.RunSpec) (*engine.RunResult, error) {
	r, err := b.NewRunner(spec)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, spec)
}

// NewRunner implements engine.RunnerBackend. The returned runner
// implements engine.Rebinder exactly when the wrapped runner does.
func (b *tracedBackend) NewRunner(spec engine.RunSpec) (engine.Runner, error) {
	r := &tracedRunner{b: b, p: spec.P}
	r.work.Workload = spec.Work
	r.work.draws = &r.draws
	spec.Work = &r.work
	inner, err := b.inner.NewRunner(spec)
	if err != nil {
		return nil, err
	}
	r.inner = inner
	if _, ok := inner.(engine.Rebinder); ok {
		return &tracedRebinder{r}, nil
	}
	return r, nil
}

// tracedRunner times Runner.Run and counts scheduling operations and
// workload draws. It is owned by one pipeline worker, like the runner it
// wraps; only the per-run totals are published atomically.
type tracedRunner struct {
	b     *tracedBackend
	inner engine.Runner
	p     int
	work  countingWork
	draws int64
}

// Run implements engine.Runner.
func (r *tracedRunner) Run(ctx context.Context, spec engine.RunSpec) (*engine.RunResult, error) {
	r.draws = 0
	start := time.Now()
	res, err := r.inner.Run(ctx, spec)
	end := time.Now()
	st := &r.b.stats
	if r.p >= largeP {
		st.large.add(end.Sub(start))
	} else {
		st.small.add(end.Sub(start))
	}
	st.draws.Add(r.draws)
	if err == nil {
		st.ops.Add(res.SchedOps)
	}
	if tr := r.b.tr.Load(); tr != nil {
		tr.record("sim.run", start, end)
	}
	return res, err
}

// tracedRebinder forwards engine.Rebinder, re-pointing the counting
// workload at the new point's workload.
type tracedRebinder struct{ *tracedRunner }

// Rebind implements engine.Rebinder.
func (r *tracedRebinder) Rebind(spec engine.RunSpec) error {
	r.p = spec.P
	r.work.Workload = spec.Work
	spec.Work = &r.work
	return r.inner.(engine.Rebinder).Rebind(spec)
}

// countingWork counts ChunkTime calls into its runner's draw counter.
type countingWork struct {
	workload.Workload
	draws *int64
}

// ChunkTime implements workload.Workload.
func (w *countingWork) ChunkTime(start, count int64, r *rng.Rand48) float64 {
	*w.draws++
	return w.Workload.ChunkTime(start, count, r)
}

// ---- cache: a wrapping store ----

// timedStore times Get and Put and records hit and entry-size counts.
type timedStore struct {
	inner    cache.Store
	tr       *tracer
	get, put timing
	hits     atomic.Int64
	putBytes atomic.Int64
}

// Get implements cache.Store.
func (s *timedStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	start := time.Now()
	data, ok, err := s.inner.Get(ctx, key)
	end := time.Now()
	s.get.add(end.Sub(start))
	if ok && err == nil {
		s.hits.Add(1)
	}
	s.tr.record("cache.get", start, end)
	return data, ok, err
}

// Put implements cache.Store.
func (s *timedStore) Put(ctx context.Context, key string, data []byte) error {
	start := time.Now()
	err := s.inner.Put(ctx, key, data)
	end := time.Now()
	s.put.add(end.Sub(start))
	s.putBytes.Add(int64(len(data)))
	s.tr.record("cache.put", start, end)
	return err
}

// ---- service: a per-route handler wrapper ----

// routeStats times the service's submit and results routes.
type routeStats struct {
	submit, results timing
	resultBytes     atomic.Int64
}

// wrapRoutes times POST /v1/jobs and GET /v1/jobs/{id}/results.
func wrapRoutes(h http.Handler, st *routeStats, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var (
			t     *timing
			layer string
		)
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			t, layer = &st.submit, "service.submit"
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && strings.HasSuffix(r.URL.Path, "/results"):
			t, layer = &st.results, "service.results"
		default:
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		t.add(end.Sub(start))
		if t == &st.results {
			st.resultBytes.Add(cw.n)
		}
		tr.record(layer, start, end)
	})
}

// countingWriter counts body bytes and forwards http.Flusher.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// Flush implements http.Flusher when the underlying writer does.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ---- client: a wrapping Doer ----

// countingDoer counts and times the client's HTTP attempts. Long polls
// (?wait=1, which block until the job ends) are counted but not timed
// as round trips. Failed attempts a retry policy would retry (transport
// errors, 5xx, 429) are counted as retries.
type countingDoer struct {
	inner   client.Doer
	tr      *tracer
	rtt     timing
	polls   atomic.Int64
	retries atomic.Int64
}

func (d *countingDoer) requests() int64 { return d.rtt.n.Load() + d.polls.Load() }

// Do implements client.Doer; the round trip ends at the response
// headers, before the body is read.
func (d *countingDoer) Do(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := d.inner.Do(req)
	end := time.Now()
	if req.URL.Query().Get("wait") != "" {
		d.polls.Add(1)
	} else {
		d.rtt.add(end.Sub(start))
	}
	if err != nil || resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		d.retries.Add(1)
	}
	d.tr.record("client.do", start, end)
	return resp, err
}
