package main

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiment"
)

// TestTracedPassKeepsPath runs a reduced Figure 5 grid untraced and
// traced: the traced backend must keep the engine on its Runner/Rebinder
// path, produce the same aggregate digest, and allocate no more per run.
func TestTracedPassKeepsPath(t *testing.T) {
	tb, err := traceBackend("sim", newTracer())
	if err != nil {
		t.Fatal(err)
	}
	be, err := engine.New(tb.name)
	if err != nil {
		t.Fatal(err)
	}
	rb, ok := be.(engine.RunnerBackend)
	if !ok {
		t.Fatal("traced backend does not forward engine.RunnerBackend")
	}
	spec := fig5Spec(config{seed: 7, workers: 2})
	spec.Runs = 100
	pts, err := spec.CampaignSpec().Points()
	if err != nil {
		t.Fatal(err)
	}
	r, err := rb.NewRunner(pts[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(engine.Rebinder); !ok {
		t.Fatal("traced runner does not forward engine.Rebinder")
	}

	runs := float64(len(pts) * spec.Runs)
	pass := func(backend string) (digest string, allocsPerRun float64) {
		s := spec
		s.Backend = backend
		best := math.Inf(1)
		for i := 0; i < 3; i++ { // the least of three passes: pool refills after a GC are noise
			var res *experiment.HagerupResult
			p, err := timePass(false, func(*pass) error {
				var err error
				res, err = experiment.RunHagerup(context.Background(), s)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			digest = hagerupDigest(res)
			best = math.Min(best, float64(p.mallocs)/runs)
		}
		return digest, best
	}
	before := tb.stats.totals()
	d0, a0 := pass("")
	d1, a1 := pass(tb.name)
	if d0 != d1 {
		t.Errorf("traced digest %s differs from untraced %s", d1, d0)
	}
	if math.Abs(a1-a0) > 0.01 {
		t.Errorf("engine.allocs_per_run: traced %.4f, untraced %.4f; tracing must not allocate per run", a1, a0)
	}
	got := tb.stats.totals().sub(before)
	if got.runs() != 3*int64(runs) || got.draws == 0 || got.ops == 0 {
		t.Errorf("traced backend saw %d runs (want %d), %d draws, %d ops", got.runs(), 3*int64(runs), got.draws, got.ops)
	}
	t.Logf("allocs/run untraced %.4f traced %.4f", a0, a1)
}
