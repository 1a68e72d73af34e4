package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	workers int     // load bound: worker goroutines, clients and nodes
	tr      *tracer // non-nil in traced runs
	// hostBound scales the passes' timed metrics to the reference host
	// (hostspeed.go), as set-up times always are: set for the workloads
	// whose passes keep the vCPUs busy, not for fleet-skew, whose passes
	// mostly wait out injected latency that does not scale with the
	// host's speed.
	hostBound bool
	// heapPasses is how many untraced passes, from the first, the live
	// heap is sampled over: a fixed amount of work, so peak_heap_mb does
	// not grow with the number of passes a faster program completes.
	heapPasses int
	mixHits    int // service-mix: repeats per round of mixBlock jobs
}

// pass is one measured unit of repeated work: a whole figure, or one
// round of service or fleet jobs.
type pass struct {
	traced  bool
	wall    time.Duration
	runs    int64         // simulation runs delivered
	jobs    int64         // jobs completed (the unit a user waits for)
	latency []float64     // per-job latency, ms, as measured
	alloc   uint64        // bytes allocated during the pass
	mallocs uint64        // heap objects allocated during the pass
	cpu     time.Duration // process CPU time (user + system) during the pass, readings included
	paused  time.Duration // host speed readings taken inside the pass, left out of wall
	backend backendTotals
}

func (p pass) runsPerS() float64 { return float64(p.runs) / p.wall.Seconds() }
func (p pass) jobsPerS() float64 { return float64(p.jobs) / p.wall.Seconds() }

// outcome is what a workload hands back for reporting.
type outcome struct {
	setup    []float64 // seconds per repeated set-up
	speeds   []float64 // host speed readings (readSpeed)
	lastRead time.Time // when the last reading ended
	passes   []pass
	live     []float64 // live heap bytes per GC cycle while untraced passes ran, sorted
	layers   map[string]float64
	chk      checks
	info     []string // recorded inputs, "key: value"
}

// hostSpeed is the run's host speed, the median of its readings; 1
// without readings.
func (o *outcome) hostSpeed() float64 {
	if len(o.speeds) == 0 {
		return 1
	}
	return median(o.speeds)
}

// readHost takes a host speed reading and returns the time it took,
// which a pass body that calls it adds to the pass's paused time.
func (o *outcome) readHost(workers int) time.Duration {
	start := time.Now()
	o.speeds = append(o.speeds, readSpeed(workers))
	o.lastRead = time.Now()
	return o.lastRead.Sub(start)
}

// passSpeed is the host speed the passes' timed metrics are scaled by.
func (o *outcome) passSpeed(cfg config) float64 {
	if !cfg.hostBound {
		return 1
	}
	return o.hostSpeed()
}

func (o *outcome) record(key, value string) { o.info = append(o.info, key+": "+value) }

// passesOf returns the passes with the given traced flag.
func (o *outcome) passesOf(traced bool) []pass {
	var out []pass
	for _, p := range o.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

// memStats reads the allocation counters (a brief stop-the-world; only
// called at pass boundaries).
func memStats() (alloc, mallocs uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// cpuTime is the process's CPU time so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timePass runs one pass body and fills in its wall time and
// allocation counts.
func timePass(traced bool, body func(p *pass) error) (pass, error) {
	p := pass{traced: traced}
	c0 := cpuTime()
	a0, m0 := memStats()
	start := time.Now()
	err := body(&p)
	p.wall = time.Since(start) - p.paused
	a1, m1 := memStats()
	p.cpu = cpuTime() - c0
	p.alloc, p.mallocs = a1-a0, m1-m0
	return p, err
}

// measure runs passes for at most cfg.seconds: a further pass starts
// only while the mean pass so far still fits, so a run never overshoots
// its budget by a pass (at least one pass runs; two in traced runs).
// Untraced runs measure only untraced passes; traced runs alternate
// untraced and traced passes, starting untraced, so the tracing
// overhead is the gap between the two kinds under the same conditions.
// The live heap is sampled while the first cfg.heapPasses untraced
// passes run. With cfg.hostBound the host speed is read after every
// stretch of about refEvery of passes and after the last; a pass body
// may read it inside the pass too (readHost), when refEvery has gone by.
func measure(cfg config, o *outcome, run func(traced bool) (pass, error)) error {
	runtime.GC()
	hs := startHeapSampler()
	defer func() { o.live = hs.stop() }()
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	start := time.Now()
	untraced := 0
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		hs.active(!traced && untraced < cfg.heapPasses)
		if !traced {
			untraced++
		}
		if traced {
			cfg.tr.trace.Store(int64(i))
		}
		p, err := run(traced)
		if err != nil {
			return err
		}
		if traced {
			end := time.Now()
			cfg.tr.record("pass", end.Add(-p.wall), end)
		}
		o.passes = append(o.passes, p)
		elapsed := time.Since(start)
		mean := elapsed / time.Duration(i+1)
		last := i+1 >= minPasses && (elapsed+mean).Seconds() > cfg.seconds
		if cfg.hostBound && (last || time.Since(o.lastRead) >= refEvery) {
			hs.active(false) // the reading's collection is not the passes'
			o.readHost(cfg.workers)
		}
		if last {
			return nil
		}
	}
}

// heapSampler records the live heap — the bytes still reachable at the
// end of a garbage collection — once per GC cycle completed while it is
// active, polling every few milliseconds, plus once after a final
// collection.
type heapSampler struct {
	on    chan bool
	quit  chan struct{}
	livec chan []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{on: make(chan bool), quit: make(chan struct{}), livec: make(chan []float64)}
	go func() {
		samples := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		var live []float64
		var lastCycle uint64
		active := true
		read := func(force bool) {
			metrics.Read(samples)
			if c := samples[0].Value.Uint64(); c != lastCycle || force {
				lastCycle = c
				live = append(live, float64(samples[1].Value.Uint64()))
			}
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case a := <-h.on:
				active = a
			case <-h.quit:
				if active {
					runtime.GC()
					read(true)
				}
				sort.Float64s(live)
				h.livec <- live
				return
			case <-tick.C:
				if active {
					read(false)
				}
			}
		}
	}()
	return h
}

func (h *heapSampler) active(a bool) { h.on <- a }

// stop ends sampling and returns the live heap per GC cycle, in bytes,
// sorted.
func (h *heapSampler) stop() []float64 {
	close(h.quit)
	return <-h.livec
}

// timeSetups runs set-up k times and records each duration in seconds
// in o.setup, reading the host speed before and after them all: every
// workload's set-up computes rather than waits. Every set-up but the last is torn down right away; the last
// one's result is returned for the measurement.
func timeSetups[T any](cfg config, o *outcome, k int, setUp func() (T, error), tearDown func(T)) (T, error) {
	var last T
	o.readHost(cfg.workers)
	for i := 0; i < k; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setUp()
		o.setup = append(o.setup, time.Since(start).Seconds())
		if err != nil {
			return last, err
		}
		if i < k-1 {
			tearDown(v)
		} else {
			last = v
		}
	}
	o.readHost(cfg.workers)
	return last, nil
}

// setups is the number of repeated set-ups per run; setup_s is their
// median.
const setups = 25

// hashWriter is an io.Writer computing a stream's SHA-256, so outputs
// are compared byte for byte without being kept in memory.
type hashWriter struct{ h hash.Hash }

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(p []byte) (int, error) { return w.h.Write(p) }

func (w *hashWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }
