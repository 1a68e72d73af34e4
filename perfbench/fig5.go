package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/refdata"
	"repro/internal/rng"
)

// fig5N is Figure 5's task count.
const fig5N = 1024

// fig5Bound is the paper's relative-discrepancy bound for Figure 5, in
// percent (§IV-B1).
const fig5Bound = 15

// gridSeed derives the experiment's base seed from the workload seed,
// avoiding the seed the pinned reference values were produced with.
func gridSeed(seed uint64) uint64 {
	s := rng.Mix64(seed ^ 0x6669673573696d) // "fig5sim"
	if s == refdata.Seed {
		s++
	}
	return s
}

// fig5Spec is the Figure 5 grid as `repro hagerup -n 1024` runs it:
// 8 techniques × p ∈ {2, 8, 64, 256, 1024}, exponential µ = 1,
// h = 0.5, 1000 runs per cell, no cache and no per-run sink.
func fig5Spec(cfg config) experiment.HagerupSpec {
	spec := experiment.HagerupGrid(gridSeed(cfg.seed))
	spec.Ns = []int64{fig5N}
	spec.Workers = cfg.workers
	return spec
}

func runFig5(ctx context.Context, cfg config, o *outcome) error {
	spec := fig5Spec(cfg)
	runs := int64(len(spec.Techniques)*len(spec.Ns)*len(spec.Ps)) * int64(spec.Runs)
	o.record("grid", fmt.Sprintf("%v × n=%v × p=%v, exponential µ=%g, h=%g, sim backend, cache off", spec.Techniques, spec.Ns, spec.Ps, spec.Mu, spec.H))
	o.record("runs per pass", fmt.Sprint(runs))
	o.record("experiment seed", fmt.Sprint(spec.Seed))

	// Set-up: build and validate the grid, then run one warm-up
	// replication per cell, which fills every lazily built scheduler and
	// arena the measured passes reuse.
	_, err := timeSetups(cfg, o, setups, func() (struct{}, error) {
		s := fig5Spec(cfg)
		if err := s.Validate(); err != nil {
			return struct{}{}, err
		}
		s.Runs = 1
		_, err := experiment.RunHagerup(ctx, s)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return err
	}

	var tb *tracedBackend
	if cfg.tr != nil {
		if tb, err = traceBackend("sim", cfg.tr); err != nil {
			return err
		}
	}
	var first *experiment.HagerupResult
	var digest string
	err = measure(cfg, o, func(traced bool) (pass, error) {
		s := spec
		var before backendTotals
		if traced {
			s.Backend = tb.name
			before = tb.stats.totals()
		}
		var res *experiment.HagerupResult
		p, err := timePass(traced, func(p *pass) error {
			var err error
			res, err = experiment.RunHagerup(ctx, s)
			return err
		})
		if err != nil {
			return p, err
		}
		p.runs, p.jobs = runs, 1
		p.latency = []float64{float64(p.wall) / 1e6}
		if traced {
			p.backend = tb.stats.totals().sub(before)
		}
		d := hagerupDigest(res)
		if first == nil {
			first, digest = res, d
		}
		o.chk.check(d == digest, "fig5-sim: pass digest %s differs from the first pass's %s (traced %v)", d, digest, traced)
		return p, nil
	})
	if err != nil {
		return err
	}

	// Correctness: a 1-worker pass produces the same digest, and
	// Figure 5d stays within the paper's bound.
	serial := spec
	serial.Workers = 1
	res, err := experiment.RunHagerup(ctx, serial)
	if err != nil {
		return err
	}
	o.chk.check(hagerupDigest(res) == digest, "fig5-sim: 1-worker digest differs from the %d-worker digest", cfg.workers)
	maxRel := fig5MaxDiscrepancy(first)
	o.chk.check(maxRel <= fig5Bound, "fig5-sim: Figure 5d max |relative discrepancy| %.2f%% exceeds the paper's %d%%", maxRel, fig5Bound)
	o.record("figure 5d max |relative discrepancy| (excluding FAC/2-PE)", fmt.Sprintf("%.2f%% (bound %d%%)", maxRel, fig5Bound))
	o.record("aggregate digest", digest)

	if cfg.tr != nil {
		var tot backendTotals
		var wall time.Duration
		var mallocs uint64
		for _, p := range o.passesOf(true) {
			tot = tot.add(p.backend)
			wall += p.wall
			mallocs += p.mallocs
		}
		engineLayers(o, tot, float64(wall)*float64(cfg.workers), mallocs, tot.runs())
		o.layers["sched.chunk_ns"], o.layers["workload.draw_ns"] = schedAndDrawNs(specPoints(spec.CampaignSpec()), spec.Seed)
	}
	return nil
}

// hagerupDigest is the SHA-256 of every cell's aggregate, bit for bit.
func hagerupDigest(r *experiment.HagerupResult) string {
	h := sha256.New()
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, c := range r.Cells {
		fmt.Fprintf(h, "%s/%d/%d/%d|", c.Technique, c.N, c.P, c.Wasted.N)
		f(c.Wasted.Mean)
		f(c.Wasted.Std)
		f(c.Wasted.Min)
		f(c.Wasted.Max)
		f(c.Wasted.Median)
		f(c.MeanOps)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fig5MaxDiscrepancy is Figure 5d's largest |relative discrepancy|
// against the pinned reference, excluding the FAC/2-PE outlier the paper
// discusses separately (§IV-B4), as `repro hagerup` reports it.
func fig5MaxDiscrepancy(r *experiment.HagerupResult) float64 {
	var maxRel float64
	for _, c := range r.Cells {
		if c.Technique == "FAC" && c.P == 2 {
			continue
		}
		ref, ok := refdata.Wasted(c.Technique, c.N, c.P)
		if !ok {
			return math.Inf(1)
		}
		maxRel = math.Max(maxRel, math.Abs(metrics.RelativeDiscrepancy(c.Wasted.Mean, ref)))
	}
	return maxRel
}
