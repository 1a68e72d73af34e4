// Package sim implements the chunk-granularity master–worker simulator
// that replicates the simulator of the BOLD publication's authors, as the
// paper itself did (§III-B):
//
//	"Therefore, the implemented simulator of the authors of [14] was
//	 replicated. Their simulator did not measure the network traffic
//	 needed for every scheduling operation. It was assumed that every
//	 scheduling operation takes a fixed amount of time (parameter h)."
//
// The simulator advances a virtual clock over scheduling events only:
// a worker becomes available, the master hands it a chunk, the worker is
// busy for the chunk's execution time, repeat. Communication is free by
// default (the paper models this in SimGrid by setting bandwidth very
// high and latency very low) and the scheduling overhead h is accounted
// per operation in the wasted-time metric (package metrics). Two
// ablation switches depart from the paper's setup on request:
//
//   - HInDynamics charges h inside the master loop, serializing
//     concurrent requests the way a real master would (DESIGN.md A1).
//   - PerMessageCost adds a fixed network round-trip per scheduling
//     operation (DESIGN.md A3), which is how the TSS-publication
//     experiments are driven without the full MSG stack.
//
// The heavyweight alternative — the process-oriented SimGrid-MSG model
// with explicit messages — lives in internal/msg and is cross-validated
// against this package by integration tests.
package sim

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Config describes one simulated loop execution.
type Config struct {
	P     int               // number of worker PEs
	Sched sched.Scheduler   // chunk calculator (owned by the master)
	Work  workload.Workload // per-task execution times
	RNG   *rng.Rand48       // randomness source; may be nil for deterministic workloads

	Speeds     []float64 // relative PE speeds; nil means all 1.0
	StartTimes []float64 // per-PE start times (uneven starts); nil means all 0

	// H is the scheduling overhead per operation. It is consumed by the
	// dynamics only when HInDynamics is set; in the paper's faithful mode
	// the caller adds h per operation post hoc via metrics.AverageWasted.
	H float64
	// HInDynamics charges h inside the master's service loop, serializing
	// concurrent requests. Every request is serviced, including the final
	// "no work left" request each worker makes, so the master is busy for
	// (ops + p)·h in total.
	HInDynamics bool

	PerMessageCost float64 // fixed request+reply network cost per scheduling operation

	// Perturb, when non-nil, returns a speed multiplier for worker w
	// starting a chunk at time now. It models systemic variability
	// (earlier-work context; see internal/perturb).
	Perturb func(w int, now float64) float64

	// Observe, when non-nil, is called once per scheduling operation with
	// the worker, the assigned task range [start, start+count), the
	// assignment time and the completion time. internal/trace.Recorder
	// has exactly this shape.
	Observe func(worker int, start, count int64, assigned, done float64)
}

// Result reports one simulated execution.
type Result struct {
	Makespan float64   // completion time of the last task
	Compute  []float64 // per-worker total computation time
	Finish   []float64 // per-worker completion time of its last chunk

	SchedOps       int64   // total scheduling operations (chunks)
	OpsPerWorker   []int64 // scheduling operations per worker
	TasksPerWorker []int64 // tasks executed per worker

	CommTime   float64 // total time spent in per-message network costs
	MasterBusy float64 // total master service time (HInDynamics mode)
}

// workerEvent is a pending "worker w requests work at time t" event.
type workerEvent struct {
	t float64
	w int
}

// eventQueue is a binary min-heap of worker events ordered by
// (time, worker id) — the worker id tie-break keeps runs deterministic
// when several workers request simultaneously (e.g. at start).
//
// The heap is hand-rolled rather than built on container/heap: the
// standard library interface passes elements as `any`, which boxes one
// workerEvent per Push — one heap allocation per scheduling operation,
// millions per campaign for fine-grained techniques like SS. The inline
// sift operations below allocate nothing. Every event in the queue
// belongs to a distinct worker, so the (time, worker) key is strictly
// totally ordered and any correct heap pops the exact same sequence —
// the replacement cannot change simulation output.
type eventQueue []workerEvent

func (q eventQueue) less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].w < q[j].w
}

// push adds ev and restores the heap property by sifting up.
func (q *eventQueue) push(ev workerEvent) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum event, sifting down to restore the
// heap property. It must not be called on an empty queue.
func (q *eventQueue) pop() workerEvent {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}

// Arena holds the reusable buffers of a simulation run: the result
// slices and the event queue's backing array. One arena serves many
// sequential runs from a single goroutine — RunInto recycles its memory,
// so steady-state runs allocate nothing. The zero value is ready to use.
type Arena struct {
	res   Result
	queue eventQueue
}

// prepare sizes the arena for p workers and returns the zeroed result.
func (a *Arena) prepare(p int) *Result {
	if cap(a.res.Compute) < p {
		a.res.Compute = make([]float64, p)
		a.res.Finish = make([]float64, p)
		a.res.OpsPerWorker = make([]int64, p)
		a.res.TasksPerWorker = make([]int64, p)
		a.queue = make(eventQueue, 0, p+1)
	}
	a.res.Compute = a.res.Compute[:p]
	a.res.Finish = a.res.Finish[:p]
	a.res.OpsPerWorker = a.res.OpsPerWorker[:p]
	a.res.TasksPerWorker = a.res.TasksPerWorker[:p]
	for i := 0; i < p; i++ {
		a.res.Compute[i] = 0
		a.res.Finish[i] = 0
		a.res.OpsPerWorker[i] = 0
		a.res.TasksPerWorker[i] = 0
	}
	a.res.Makespan = 0
	a.res.SchedOps = 0
	a.res.CommTime = 0
	a.res.MasterBusy = 0
	a.queue = a.queue[:0]
	return &a.res
}

// Run executes the master–worker loop to completion and returns the
// timing results. Each call allocates a fresh Result; callers executing
// many runs should reuse an Arena via RunInto instead.
func Run(cfg Config) (*Result, error) {
	res, err := RunInto(cfg, new(Arena))
	if err != nil {
		return nil, err
	}
	// Detach the result from the throwaway arena so it has ordinary
	// value semantics for the caller.
	out := *res
	return &out, nil
}

// RunInto executes the master–worker loop to completion using the
// arena's buffers. The returned Result (and its slices) aliases the
// arena and is valid only until the arena's next RunInto call; callers
// that retain results across runs must copy them. Reusing one arena
// across runs makes the steady-state hot path allocation-free.
func RunInto(cfg Config, a *Arena) (*Result, error) {
	if cfg.P <= 0 {
		return nil, fmt.Errorf("sim: P must be positive, got %d", cfg.P)
	}
	if cfg.Sched == nil {
		return nil, fmt.Errorf("sim: Config.Sched is nil")
	}
	if cfg.Work == nil {
		return nil, fmt.Errorf("sim: Config.Work is nil")
	}
	if cfg.Speeds != nil && len(cfg.Speeds) != cfg.P {
		return nil, fmt.Errorf("sim: got %d speeds for %d workers", len(cfg.Speeds), cfg.P)
	}
	if cfg.StartTimes != nil && len(cfg.StartTimes) != cfg.P {
		return nil, fmt.Errorf("sim: got %d start times for %d workers", len(cfg.StartTimes), cfg.P)
	}
	if !cfg.Work.Deterministic() && cfg.RNG == nil {
		return nil, fmt.Errorf("sim: random workload %q requires Config.RNG", cfg.Work.Name())
	}

	res := a.prepare(cfg.P)
	q := &a.queue
	for w := 0; w < cfg.P; w++ {
		start := 0.0
		if cfg.StartTimes != nil {
			start = cfg.StartTimes[w]
		}
		q.push(workerEvent{t: start, w: w})
	}

	if err := runLoop(cfg, res, q); err != nil {
		return nil, err
	}
	return res, nil
}

// runLoop is the simulator's inner loop, handling every optional
// dynamic. The only error it can produce is a non-positive effective
// speed (a Perturb contract violation); the arena's result is partially
// filled in that case and must be discarded.
func runLoop(cfg Config, res *Result, q *eventQueue) error {
	var nextTask int64 // global index of the next unassigned task
	var masterFree float64

	for len(*q) > 0 {
		ev := q.pop()
		t := ev.t

		serviceEnd := t
		if cfg.HInDynamics {
			start := t
			if masterFree > start {
				start = masterFree
			}
			serviceEnd = start + cfg.H
			masterFree = serviceEnd
			res.MasterBusy += cfg.H
		}

		chunk := cfg.Sched.Next(ev.w, t)
		if chunk == 0 {
			// Finalization: the worker leaves the computation.
			if t > res.Finish[ev.w] {
				res.Finish[ev.w] = t
			}
			continue
		}

		chunkStart := nextTask
		exec := cfg.Work.ChunkTime(nextTask, chunk, cfg.RNG)
		nextTask += chunk
		s := 1.0
		if cfg.Speeds != nil {
			s = cfg.Speeds[ev.w]
		}
		if cfg.Perturb != nil {
			s *= cfg.Perturb(ev.w, serviceEnd)
		}
		if s <= 0 {
			return fmt.Errorf("sim: non-positive speed %v for worker %d", s, ev.w)
		}
		exec /= s

		done := serviceEnd + cfg.PerMessageCost + exec
		res.CommTime += cfg.PerMessageCost
		res.Compute[ev.w] += exec
		res.Finish[ev.w] = done
		res.OpsPerWorker[ev.w]++
		res.TasksPerWorker[ev.w] += chunk
		res.SchedOps++
		cfg.Sched.Report(ev.w, chunk, exec, done)
		if cfg.Observe != nil {
			cfg.Observe(ev.w, chunkStart, chunk, serviceEnd, done)
		}
		if done > res.Makespan {
			res.Makespan = done
		}
		q.push(workerEvent{t: done, w: ev.w})
	}

	return nil
}
