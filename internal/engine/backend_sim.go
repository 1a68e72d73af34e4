package engine

import (
	"context"

	"repro/internal/rng"
	"repro/internal/sim"
)

// simBackend adapts the chunk-granularity Hagerup-replica simulator
// (internal/sim) — the fast path every figure of the paper is produced
// with. It supports the full RunSpec surface.
type simBackend struct{}

func init() { Register(simBackend{}) }

func (simBackend) Name() string { return "sim" }

func (simBackend) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r, err := simBackend{}.NewRunner(spec) // validates the spec
	if err != nil {
		return nil, err
	}
	res, err := r.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	// The runner and its arena are throwaway here, so the aliased result
	// needs no copy — no other run will ever overwrite it.
	return res, nil
}

// simRunner is the amortized execution state for one campaign point:
// spec validated once, scheduler Reset per run, rand48 re-seeded in
// place, and all result buffers pooled in a sim.Arena. Steady-state runs
// perform zero heap allocations. Rebind re-points the runner at a new
// point while keeping the arena, so one runner (and its memory) can
// serve a whole worker's share of the grid.
type simRunner struct {
	cfg   sim.Config
	rng   rng.Rand48
	arena sim.Arena
	out   RunResult
}

// NewRunner implements RunnerBackend.
func (simBackend) NewRunner(spec RunSpec) (Runner, error) {
	r := &simRunner{}
	if err := r.Rebind(spec); err != nil {
		return nil, err
	}
	return r, nil
}

// Rebind implements Rebinder: validate the new point, build its
// scheduler, and retain the arena (which re-sizes itself to the new P
// on the next run).
func (r *simRunner) Rebind(spec RunSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	s, err := spec.Scheduler()
	if err != nil {
		return err
	}
	r.cfg = sim.Config{
		P:              spec.P,
		Sched:          s,
		Work:           spec.Work,
		RNG:            &r.rng,
		Speeds:         spec.Speeds,
		StartTimes:     spec.StartTimes,
		H:              spec.H,
		HInDynamics:    spec.HInDynamics,
		PerMessageCost: spec.PerMessageCost,
		Observe:        spec.Observe,
	}
	return nil
}

func (r *simRunner) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.cfg.Sched.Reset()
	r.rng.SetState(spec.RNGState)
	res, err := sim.RunInto(r.cfg, &r.arena)
	if err != nil {
		return nil, err
	}
	r.out = RunResult{
		Makespan:       res.Makespan,
		Compute:        res.Compute,
		SchedOps:       res.SchedOps,
		OpsPerWorker:   res.OpsPerWorker,
		TasksPerWorker: res.TasksPerWorker,
		CommTime:       res.CommTime,
		MasterBusy:     res.MasterBusy,
	}
	return &r.out, nil
}
