package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/rng"
)

// Event is one completed run flowing through the results pipeline.
// Events are delivered to sinks in deterministic global order — point 0
// replication 0, point 0 replication 1, … — regardless of worker count
// or completion order, so any sink output is bit-reproducible.
type Event struct {
	Point int // index into Campaign.Points
	Rep   int // replication index within the point

	// Spec is the run's spec as executed, with the derived RNGState.
	Spec RunSpec

	// Metrics are the per-run scalars every campaign reports.
	Metrics RunMetrics

	// Result is the full backend result. It is non-nil only when the
	// campaign retains results (Campaign.KeepRuns); cache replays and
	// lean streaming runs deliver metrics-only events.
	Result *RunResult
}

// Sink consumes the ordered stream of run events. The pipeline invokes
// Consume from a single goroutine, so implementations need no locking.
// A Consume error aborts the campaign; ctx is the campaign's (or the
// replaying request's) context, so sinks streaming to slow or remote
// destinations can abandon work when the consumer goes away. Close
// flushes the sink after the final event (or after an abort) and is
// called exactly once.
type Sink interface {
	Consume(ctx context.Context, ev Event) error
	Close() error
}

// Stream executes the campaign, emitting every completed run to the
// given sinks instead of materializing results. This is the primitive
// Run is built on: the worker pool executes replication batches
// (chunks) in arbitrary completion order, folding each chunk's runs into
// a pooled buffer of 32-byte per-run scalars, and a reorder stage
// restores deterministic (point, replication) order at chunk
// granularity and expands each chunk into per-run events (eventFeed),
// so sinks observe the exact event sequence a serial execution would
// produce. All sinks are closed before Stream returns; the first run or
// sink error aborts the remaining grid and is returned.
//
// Cancelling ctx aborts the campaign: no further backend runs are
// scheduled once cancellation is observed, the worker pool drains
// without leaking goroutines, every sink is still closed exactly once,
// and the returned error wraps ctx.Err() (errors.Is(err,
// context.Canceled) holds). Events already dispatched before the
// cancellation form a prefix of the deterministic global order.
func (c Campaign) Stream(ctx context.Context, sinks ...Sink) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return closeSinks(sinks, fmt.Errorf("engine: campaign: %w", err))
	}
	if len(c.Points) == 0 {
		return closeSinks(sinks, fmt.Errorf("engine: campaign has no points"))
	}
	if c.Replications <= 0 {
		return closeSinks(sinks, fmt.Errorf("engine: Replications must be positive, got %d", c.Replications))
	}
	be, err := New(c.Backend)
	if err != nil {
		return closeSinks(sinks, err)
	}
	for i, pt := range c.Points {
		if err := pt.Validate(); err != nil {
			return closeSinks(sinks, fmt.Errorf("engine: campaign point %d: %w", i, err))
		}
	}
	seedFor := c.SeedFor
	if seedFor == nil {
		seedFor = func(point, rep int) uint64 {
			return rng.RunSeed(c.Points[point].RNGState, rep)
		}
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reps := c.Replications
	total := len(c.Points) * reps
	if workers > total {
		workers = total
	}
	// The unit of work is a chunk: a (point, replication-range) batch a
	// worker executes end to end on its private execution context. One
	// channel send and one reorder pass per chunk — not per run —
	// amortizes pipeline overhead to ~0 per run once chunks carry tens
	// of replications.
	chunkSize := c.ChunkSize
	if chunkSize <= 0 {
		chunkSize = autoChunkSize(total, reps, workers)
	}
	if chunkSize > reps {
		chunkSize = reps
	}
	chunksPerPoint := (reps + chunkSize - 1) / chunkSize
	totalChunks := int64(len(c.Points)) * int64(chunksPerPoint)
	if int64(workers) > totalChunks {
		workers = int(totalChunks)
	}
	// Every worker runs through a Runner: a per-core execution context
	// with the spec validated once per point, the scheduler Reset
	// instead of rebuilt and result buffers pooled in the worker's arena
	// (retained across points via Rebind). A backend without its own
	// Runner gets an adapter that calls Backend.Run per replication.
	rb, ok := be.(RunnerBackend)
	if !ok {
		rb = backendRunner{be}
	}
	// The pools recycle the per-chunk buffers: the reorder stage returns
	// each buffer after delivering its chunk, so the steady state
	// allocates nothing per chunk. Full results are only retained (as
	// clones detached from the runner's arena) under KeepRuns.
	runPool := sync.Pool{New: func() any {
		b := make([]RunMetrics, 0, chunkSize)
		return &b
	}}
	resPool := sync.Pool{New: func() any {
		b := make([]*RunResult, 0, chunkSize)
		return &b
	}}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup

		// nextOut is the next chunk index the reorder stage dispatches
		// (its published value; the reorder goroutine's private counter
		// runs ahead while draining). Workers wait before executing
		// chunks more than window indices ahead of it, which bounds the
		// reorder ring under arbitrary run-duration skew (one
		// pathologically slow chunk cannot make the buffer absorb the
		// whole remaining grid).
		outMu   sync.Mutex
		outCond = sync.NewCond(&outMu)
		nextOut int64
	)
	// The in-flight window is in chunk units: enough slack that fast
	// workers never stall behind one slow chunk, small enough that the
	// ring buffers at most window chunks of completed runs.
	window := int64(4 * workers)
	if window < 8 {
		window = 8
	}
	if window > totalChunks {
		window = totalChunks
	}
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
		outMu.Lock()
		outCond.Broadcast() // release workers waiting on the window
		outMu.Unlock()
	}

	// Cancelling ctx enters the pipeline's failure protocol: failed stops
	// workers from claiming further runs and the broadcast releases any
	// worker parked on the reorder window.
	stopWatch := context.AfterFunc(ctx, func() {
		fail(fmt.Errorf("engine: campaign: %w", ctx.Err()))
	})

	// chunkDone carries one completed (possibly incomplete, on abort)
	// chunk from a worker to the reorder stage: the per-run scalars in
	// replication order and, under KeepRuns, the retained results.
	type chunkDone struct {
		idx     int64 // global chunk index
		runs    *[]RunMetrics
		results *[]*RunResult // nil unless KeepRuns
	}
	chunks := make(chan chunkDone, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				runner   Runner
				runnerPt = -1
			)
			for {
				k := next.Add(1) - 1
				if k >= totalChunks || failed.Load() {
					return
				}
				// A worker holds no completed runs while parked (chunks
				// are handed over as soon as they finish), so waiting on
				// the window can never starve the reorder stage.
				outMu.Lock()
				for k >= nextOut+window && !failed.Load() {
					outCond.Wait()
				}
				outMu.Unlock()
				if failed.Load() {
					return
				}
				pi := int(k / int64(chunksPerPoint))
				repLo := int(k%int64(chunksPerPoint)) * chunkSize
				repHi := min(repLo+chunkSize, reps)
				if runnerPt != pi {
					var err error
					if rbn, ok := runner.(Rebinder); ok {
						// Keep the worker's execution context (arenas,
						// pooled buffers) alive across point switches.
						err = rbn.Rebind(c.Points[pi])
					} else {
						runner, err = rb.NewRunner(c.Points[pi])
					}
					if err != nil {
						fail(fmt.Errorf("engine: point %d: %w", pi, err))
						return
					}
					runnerPt = pi
				}
				cd := chunkDone{idx: k, runs: runPool.Get().(*[]RunMetrics)}
				if c.KeepRuns {
					cd.results = resPool.Get().(*[]*RunResult)
				}
				aborted := false
				for rep := repLo; rep < repHi; rep++ {
					if failed.Load() {
						aborted = true
						break
					}
					spec := c.Points[pi]
					spec.RNGState = seedFor(pi, rep)
					res, err := runner.Run(ctx, spec)
					if err != nil {
						fail(fmt.Errorf("engine: point %d replication %d: %w", pi, rep, err))
						aborted = true
						break
					}
					*cd.runs = append(*cd.runs, pointMetrics(spec, res))
					if cd.results != nil {
						// Runner results alias the runner's arena; detach
						// them before the next run overwrites the buffers.
						*cd.results = append(*cd.results, res.Clone())
					}
				}
				// An incomplete chunk is only produced after fail(), whose
				// atomic store happens before this send — the reorder
				// stage observes failed and never dispatches it, so the
				// delivered stream stays a contiguous prefix.
				chunks <- cd
				if aborted {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(chunks)
	}()

	// Reorder completed chunks into global order and dispatch. Runs
	// within a chunk are already in replication order, so ordering the
	// chunks orders the whole stream. The worker-side window bounds
	// in-flight chunk indices to [nextOut, nextOut+window), so slot
	// k%window is collision-free. nextOutLocal is the reorder stage's
	// private cursor, published to nextOut (with one broadcast) once per
	// received chunk that advances it.
	var (
		feed         = eventFeed{points: c.Points, seedFor: seedFor, sinks: sinks}
		ring         = make([]chunkDone, window)
		present      = make([]bool, window)
		nextOutLocal int64
	)
	for cd := range chunks {
		slot := cd.idx % window
		ring[slot] = cd
		present[slot] = true
		advanced := false
		for {
			slot := nextOutLocal % window
			if !present[slot] {
				break
			}
			out := ring[slot]
			ring[slot] = chunkDone{}
			present[slot] = false
			nextOutLocal++
			advanced = true
			pi := int(out.idx / int64(chunksPerPoint))
			repLo := int(out.idx%int64(chunksPerPoint)) * chunkSize
			var results []*RunResult
			if out.results != nil {
				results = *out.results
			}
			if err := feed.deliver(ctx, failed.Load, pi, repLo, *out.runs, results); err != nil {
				fail(err)
			}
			*out.runs = (*out.runs)[:0]
			runPool.Put(out.runs)
			if out.results != nil {
				clear(*out.results) // drop the Result references
				*out.results = (*out.results)[:0]
				resPool.Put(out.results)
			}
		}
		if advanced {
			outMu.Lock()
			nextOut = nextOutLocal
			outCond.Broadcast()
			outMu.Unlock()
		}
	}
	// All workers and the consumer loop are done; a cancellation from
	// here on no longer aborts anything.
	stopWatch()
	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	return closeSinks(sinks, err)
}

// eventFeed builds the ordered per-run Event stream from compact chunk
// buffers. It is the one place events are built, for live runs
// (Stream's reorder stage) and cache replays alike.
type eventFeed struct {
	points  []RunSpec
	seedFor func(point, rep int) uint64
	sinks   []Sink
}

// deliver expands replications [repLo, repLo+len(runs)) of point pi into
// Events, recomputing each RNGState from seedFor, and hands each event
// to every sink in order. results, when non-nil, holds the retained full
// results aligned with runs. halted is polled before each event: once it
// reports true the rest of the chunk is dropped, so the delivered stream
// stays a prefix. The first sink error is returned.
func (f eventFeed) deliver(ctx context.Context, halted func() bool, pi, repLo int, runs []RunMetrics, results []*RunResult) error {
	for i, m := range runs {
		if halted() {
			return nil
		}
		ev := Event{Point: pi, Rep: repLo + i, Spec: f.points[pi], Metrics: m}
		ev.Spec.RNGState = f.seedFor(pi, ev.Rep)
		if results != nil {
			ev.Result = results[i]
		}
		for _, s := range f.sinks {
			if err := s.Consume(ctx, ev); err != nil {
				return fmt.Errorf("engine: sink: %w", err)
			}
		}
	}
	return nil
}

// backendRunner adapts a Backend without its own Runner path: the one
// "runner" serves every point, and each Run is a full Backend.Run
// (validate, build, allocate).
type backendRunner struct{ Backend }

func (b backendRunner) NewRunner(RunSpec) (Runner, error) { return b, nil }

// closeSinks closes every sink exactly once, returning first or, when
// first is nil, the first close error.
func closeSinks(sinks []Sink, first error) error {
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = fmt.Errorf("engine: sink close: %w", err)
		}
	}
	return first
}

// autoChunkSize picks the replication-batch size when the caller didn't:
// large enough that the per-chunk pipeline overhead (one channel send,
// one reorder pass, at most one broadcast) amortizes to ~0 per run,
// small enough to keep ~8 chunks per worker in flight for load balance.
// Chunks never span points, so the result is capped at the per-point
// replication count, and a hard ceiling bounds how many completed
// events the reorder window can buffer. Chunk size affects scheduling
// only — the delivered stream is bit-identical for every value.
func autoChunkSize(total, reps, workers int) int {
	const (
		chunksPerWorker = 8
		maxChunk        = 1024
	)
	c := total / (workers * chunksPerWorker)
	if c < 1 {
		c = 1
	}
	if c > maxChunk {
		c = maxChunk
	}
	if c > reps {
		c = reps
	}
	return c
}

// aggregateSink folds the event stream into per-point Aggregates — the
// one aggregation implementation behind Campaign.Run, CampaignSpec
// execution and cache replay. Events arrive in replication order, so the
// per-run scalars (32 bytes per run, not full RunResults) buffer in the
// exact sequence a serial execution produces; summarizing them yields
// aggregates bit-identical to the historical buffered path. The online
// wasted-time accumulators feed the campaign's streaming Overall
// roll-up.
type aggregateSink struct {
	points      []RunSpec
	reps        int
	keepPerRun  bool // expose per-run metrics in the Aggregates
	keepResults bool // expose full results in the Aggregates

	wasted  []metrics.Accumulator
	ops     []int64
	perRun  [][]RunMetrics
	results [][]*RunResult
}

func newAggregateSink(points []RunSpec, reps int, keepPerRun, keepResults bool) *aggregateSink {
	if reps < 0 {
		reps = 0 // Stream rejects the campaign before any event flows
	}
	s := &aggregateSink{
		points:      points,
		reps:        reps,
		keepPerRun:  keepPerRun,
		keepResults: keepResults,
		wasted:      make([]metrics.Accumulator, len(points)),
		ops:         make([]int64, len(points)),
		perRun:      make([][]RunMetrics, len(points)),
	}
	for i := range points {
		s.perRun[i] = make([]RunMetrics, 0, reps)
	}
	if keepResults {
		s.results = make([][]*RunResult, len(points))
		for i := range points {
			s.results[i] = make([]*RunResult, 0, reps)
		}
	}
	return s
}

func (s *aggregateSink) Consume(_ context.Context, ev Event) error {
	pi := ev.Point
	if pi < 0 || pi >= len(s.points) {
		return fmt.Errorf("engine: aggregate sink: point %d out of range", pi)
	}
	if ev.Rep != len(s.perRun[pi]) {
		return fmt.Errorf("engine: aggregate sink: point %d got replication %d, want %d (events out of order)",
			pi, ev.Rep, len(s.perRun[pi]))
	}
	m := ev.Metrics
	s.wasted[pi].Add(m.Wasted)
	s.ops[pi] += m.SchedOps
	s.perRun[pi] = append(s.perRun[pi], m)
	if s.keepResults {
		s.results[pi] = append(s.results[pi], ev.Result)
	}
	return nil
}

func (s *aggregateSink) Close() error {
	for pi := range s.points {
		if got := len(s.perRun[pi]); got != s.reps {
			return fmt.Errorf("engine: aggregate sink: point %d saw %d of %d replications", pi, got, s.reps)
		}
	}
	return nil
}

// Aggregates assembles the final per-point aggregates by summarizing the
// retained per-run scalars in replication order — bit-identical to the
// historical buffered path for every statistic, including the two-pass
// standard deviation and the median.
func (s *aggregateSink) Aggregates() []Aggregate {
	out := make([]Aggregate, len(s.points))
	vals := make([]float64, s.reps)
	summarize := func(runs []RunMetrics, get func(RunMetrics) float64) metrics.Summary {
		for i, m := range runs {
			vals[i] = get(m)
		}
		return metrics.Summarize(vals)
	}
	for pi := range s.points {
		runs := s.perRun[pi]
		agg := Aggregate{
			Spec:     s.points[pi],
			Wasted:   summarize(runs, func(m RunMetrics) float64 { return m.Wasted }),
			Makespan: summarize(runs, func(m RunMetrics) float64 { return m.Makespan }),
			Speedup:  summarize(runs, func(m RunMetrics) float64 { return m.Speedup }),
			MeanOps:  float64(s.ops[pi]) / float64(s.reps),
		}
		if s.keepPerRun {
			agg.PerRun = runs
		}
		if s.keepResults {
			agg.Results = s.results[pi]
		}
		out[pi] = agg
	}
	return out
}

// Overall merges the per-point wasted-time accumulators in point order —
// a deterministic cross-partition roll-up of the whole campaign.
func (s *aggregateSink) Overall() metrics.Accumulator {
	var a metrics.Accumulator
	for pi := range s.points {
		a.Merge(s.wasted[pi])
	}
	return a
}
