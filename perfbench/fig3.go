package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/refdata"
	"repro/internal/workload"
)

// tzenVerdictPct is the relative discrepancy at p = 80 beyond which a
// Figure 3 curve counts as not reproduced, as `repro tss1` judges it.
const tzenVerdictPct = 25

// fig3Spec is Figure 3 as `repro tss1 -msg` runs it: TSS experiment 1,
// 100,000 constant 110 µs tasks, 5 curves × 11 PE counts, on the
// SimGrid-MSG replica. It has no random inputs; the seed is recorded
// only.
func fig3Spec() experiment.TzenSpec {
	spec := experiment.TzenExperiment1()
	spec.UseMSG = true
	return spec
}

func runFig3(ctx context.Context, cfg config, o *outcome) error {
	spec := fig3Spec()
	runs := int64(len(spec.Curves) * len(spec.Ps))
	o.record("grid", fmt.Sprintf("TSS experiment 1: n=%d constant %gs tasks, %d curves × p=%v, msg backend, serial", spec.N, spec.TaskTime, len(spec.Curves), spec.Ps))
	o.record("runs per pass", fmt.Sprint(runs))

	// Set-up: run the cheapest curve (CSS: p chunks per point) at every
	// PE count, which builds the MSG platform, hosts and process
	// goroutines of each point once.
	_, err := timeSetups(cfg, o, setups, func() (struct{}, error) {
		s := fig3Spec()
		s.Curves = s.Curves[1:2]
		_, err := experiment.RunTzen(ctx, s)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return err
	}

	var digest string
	var first *experiment.TzenResult
	var pointNs, pointMallocs float64
	var points int64
	err = measure(cfg, o, func(traced bool) (pass, error) {
		var res *experiment.TzenResult
		p, err := timePass(traced, func(p *pass) error {
			// One RunTzen call per figure point, reassembled into the
			// figure; traced passes time and allocation-count each call
			// from outside.
			res = &experiment.TzenResult{Spec: spec, Curves: map[string][]experiment.TzenPoint{}}
			for _, c := range spec.Curves {
				for _, pe := range spec.Ps {
					one := spec
					one.Curves = []experiment.TzenCurve{c}
					one.Ps = []int{pe}
					var m0 uint64
					if traced {
						_, m0 = memStats()
					}
					start := time.Now()
					r, err := experiment.RunTzen(ctx, one)
					end := time.Now()
					if err != nil {
						return err
					}
					if traced {
						_, m1 := memStats()
						cfg.tr.record("msg.run", start, end)
						pointNs += float64(end.Sub(start))
						pointMallocs += float64(m1 - m0)
						points++
					}
					res.Curves[c.Label] = append(res.Curves[c.Label], r.Curves[c.Label]...)
					// A figure takes several seconds: read the host speed
					// between its points too, outside the pass's time.
					if cfg.hostBound && time.Since(o.lastRead) >= refEvery {
						p.paused += o.readHost(cfg.workers)
					}
				}
			}
			return nil
		})
		if err != nil {
			return p, err
		}
		p.runs, p.jobs = runs, 1
		p.latency = []float64{float64(p.wall) / 1e6}
		d := tzenDigest(res)
		if first == nil {
			first, digest = res, d
		}
		o.chk.check(d == digest, "fig3-msg: pass digest %s differs from the first pass's %s (traced %v)", d, digest, traced)
		return p, nil
	})
	if err != nil {
		return err
	}

	// Correctness: the §IV-A verdict — CSS and TSS reproduce the
	// original curves at p = 80, SS does not.
	for _, label := range []string{"CSS", "TSS", "SS"} {
		rel := tzenDiscrepancy(first, label)
		if label == "SS" {
			o.chk.check(rel > tzenVerdictPct, "fig3-msg: SS |relative discrepancy| %.1f%% at p=80, but the paper found SS does not reproduce", rel)
		} else {
			o.chk.check(rel <= tzenVerdictPct, "fig3-msg: %s |relative discrepancy| %.1f%% at p=80, but the paper found it reproduces", label, rel)
		}
		o.record(label+" |relative discrepancy| at p=80", fmt.Sprintf("%.1f%%", rel))
	}
	o.record("result digest", digest)

	if cfg.tr != nil && points > 0 {
		pts := tzenPoints(spec)
		chunkNs, _ := schedAndDrawNs(pts, cfg.seed)
		ops := float64(chunkCount(pts)) * float64(points) / float64(len(pts))
		o.layers["sched.chunk_ns"] = chunkNs
		o.layers["sched.ops_per_run"] = ops / float64(points)
		o.layers["msg.run_ms"] = pointNs / float64(points) / 1e6
		o.layers["msg.host_us_per_op"] = pointNs / ops / 1e3
		o.layers["msg.allocs_per_op"] = pointMallocs / ops
		o.record("msg per-op metrics", "scheduling operations counted by sched.New+Next with each point's parameters (constant tasks: the chunk sequence does not depend on timing)")
		runtime.GC()
	}
	return nil
}

// tzenPoints are the figure's runs as the engine run specs RunTzen
// builds for them (experiment/tzen.go): constant tasks, the master's
// overhead charged in the dynamics, four link latencies per operation.
func tzenPoints(spec experiment.TzenSpec) []engine.RunSpec {
	var out []engine.RunSpec
	for _, c := range spec.Curves {
		for _, p := range spec.Ps {
			out = append(out, engine.RunSpec{
				Technique: c.Tech, N: spec.N, P: p, Work: workload.NewConstant(spec.TaskTime),
				MinChunk: c.MinChunk, H: spec.MasterOverhead, HInDynamics: spec.MasterOverhead > 0,
				PerMessageCost: 4 * spec.LinkLatency,
			})
		}
	}
	return out
}

// tzenDigest is the SHA-256 of every point's metrics, bit for bit.
func tzenDigest(r *experiment.TzenResult) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range r.Spec.Curves {
		for _, pt := range r.Curves[c.Label] {
			fmt.Fprintf(h, "%s/%d|", c.Label, pt.P)
			for _, v := range []float64{pt.Speedup, pt.Overhead, pt.Imbalancing} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// tzenDiscrepancy is the |relative discrepancy| of a curve's speedup at
// the largest p against the digitized original.
func tzenDiscrepancy(r *experiment.TzenResult, label string) float64 {
	ref, ok := refdata.TzenSpeedup(1, label)
	pts := r.Curves[label]
	if !ok || len(pts) == 0 {
		return math.Inf(1)
	}
	last := len(pts) - 1
	return math.Abs(metrics.RelativeDiscrepancy(pts[last].Speedup, ref[last]))
}
