package main

import (
	"fmt"
	"time"

	"repro/campaign"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/rng"
)

// The helpers below turn what the traced wrappers observed into
// per-layer metrics.

// engineLayers fills the engine, sim and workload metrics from the
// traced backend's totals. capacity is the worker time (ns) the engine
// had for them; mallocs are the process's allocations while delivering
// `delivered` runs.
func engineLayers(o *outcome, tot backendTotals, capacity float64, mallocs uint64, delivered int64) {
	runs := tot.runs()
	if runs == 0 || delivered == 0 {
		return
	}
	o.layers["workload.draws_per_run"] = float64(tot.draws) / float64(runs)
	o.layers["sched.ops_per_run"] = float64(tot.ops) / float64(runs)
	if tot.smallN > 0 {
		o.layers["sim.run_us.small_p"] = float64(tot.smallNs) / float64(tot.smallN) / 1e3
	}
	if tot.largeN > 0 {
		o.layers["sim.run_us.large_p"] = float64(tot.largeNs) / float64(tot.largeN) / 1e3
	}
	o.layers["engine.backend_busy_ratio"] = float64(tot.busyNs()) / capacity
	o.layers["engine.self_us_per_run"] = (capacity - float64(tot.busyNs())) / float64(runs) / 1e3
	o.layers["engine.allocs_per_run"] = float64(mallocs) / float64(delivered)
}

// jobLayers fills the jobs metrics from snapshots: time queued
// (created → started) and executing (started → finished).
func jobLayers(o *outcome, snaps []jobs.Snapshot) {
	if len(snaps) == 0 {
		return
	}
	var wait, exec time.Duration
	for _, s := range snaps {
		wait += s.StartedAt.Sub(s.CreatedAt)
		exec += s.FinishedAt.Sub(*s.StartedAt)
	}
	o.layers["jobs.queue_wait_ms"] = float64(wait) / float64(len(snaps)) / 1e6
	o.layers["jobs.exec_ms"] = float64(exec) / float64(len(snaps)) / 1e6
}

// storeLayers fills the cache metrics from traced stores.
func storeLayers(o *outcome, stores ...*timedStore) {
	var get, put, getNs, putNs, hits, bytes int64
	for _, s := range stores {
		get += s.get.n.Load()
		getNs += s.get.ns.Load()
		put += s.put.n.Load()
		putNs += s.put.ns.Load()
		hits += s.hits.Load()
		bytes += s.putBytes.Load()
	}
	if get > 0 {
		o.layers["cache.get_us"] = float64(getNs) / float64(get) / 1e3
		o.layers["cache.hit_ratio"] = float64(hits) / float64(get)
	}
	if put > 0 {
		o.layers["cache.put_us"] = float64(putNs) / float64(put) / 1e3
		o.layers["cache.entry_bytes"] = float64(bytes) / float64(put)
	}
	o.record("cache.hit_ratio base", fmt.Sprintf("%d hits of %d gets", hits, get))
}

// serviceLayers fills the service metrics from traced route wrappers;
// runs is the number of runs the results routes streamed.
func serviceLayers(o *outcome, runs int64, routes ...*routeStats) {
	var sub, subNs, res, resNs, bytes int64
	for _, r := range routes {
		sub += r.submit.n.Load()
		subNs += r.submit.ns.Load()
		res += r.results.n.Load()
		resNs += r.results.ns.Load()
		bytes += r.resultBytes.Load()
	}
	if sub > 0 {
		o.layers["service.submit_ms"] = float64(subNs) / float64(sub) / 1e6
	}
	if res > 0 {
		o.layers["service.results_ms"] = float64(resNs) / float64(res) / 1e6
	}
	if runs > 0 {
		o.layers["service.results_bytes_per_run"] = float64(bytes) / float64(runs)
	}
}

// clientLayers fills the client metrics from traced Doers; jobs is the
// number of jobs those clients completed.
func clientLayers(o *outcome, jobs int64, doers ...*countingDoer) {
	var reqs, rtt, rttNs, retries int64
	for _, d := range doers {
		reqs += d.requests()
		rtt += d.rtt.n.Load()
		rttNs += d.rtt.ns.Load()
		retries += d.retries.Load()
	}
	if jobs > 0 {
		o.layers["client.requests_per_job"] = float64(reqs) / float64(jobs)
	}
	if rtt > 0 {
		o.layers["client.rtt_ms"] = float64(rttNs) / float64(rtt) / 1e6
	}
	o.layers["client.retries"] = float64(retries)
}

// Scheduling and workload draws are also timed in isolation, from
// outside, over the workload's own run specs: engine.RunSpec.Scheduler
// is sched.New with exactly the parameters the backends use.

// microTime is the minimum duration of each micro-timing loop.
const microTime = 100 * time.Millisecond

// drawSink keeps the timed draws observable so they are not optimized
// away.
var drawSink float64

// specPoints expands campaign specs into their run specs.
func specPoints(specs ...campaign.Spec) []engine.RunSpec {
	var out []engine.RunSpec
	for _, s := range specs {
		pts, err := s.Points()
		if err != nil {
			continue // the workload's own checks report invalid specs
		}
		out = append(out, pts...)
	}
	return out
}

// chunkCount is the number of scheduling operations of one loop over
// every point, requests served round-robin.
func chunkCount(points []engine.RunSpec) int64 {
	var n int64
	for _, pt := range points {
		s, err := pt.Scheduler()
		if err != nil {
			continue
		}
		for w := 0; s.Remaining() > 0; w = (w + 1) % pt.P {
			if s.Next(w, 0) == 0 {
				break
			}
		}
		n += s.Chunks()
	}
	return n
}

// schedAndDrawNs times the scheduling and workload layers over the
// points' own chunk sequences: chunkNs is building the scheduler plus
// every Next call of a whole loop, per chunk (Table II); drawNs is one
// ChunkTime call per chunk of those sequences (0 when every workload is
// deterministic and draws nothing).
func schedAndDrawNs(points []engine.RunSpec, seed uint64) (chunkNs, drawNs float64) {
	type chunk struct{ start, count int64 }
	seqs := make([][]chunk, len(points))
	var chunks int64
	start := time.Now()
	for iter := 0; iter == 0 || time.Since(start) < microTime; iter++ {
		for i, pt := range points {
			s, err := pt.Scheduler()
			if err != nil {
				continue
			}
			var next int64
			for w := 0; s.Remaining() > 0; w = (w + 1) % pt.P {
				k := s.Next(w, 0)
				if k == 0 {
					break
				}
				if iter == 0 {
					seqs[i] = append(seqs[i], chunk{next, k})
				}
				next += k
				chunks++
			}
		}
	}
	if chunks == 0 {
		return 0, 0
	}
	chunkNs = float64(time.Since(start)) / float64(chunks)

	var draws int64
	var sum float64
	r := rng.FromState(seed)
	start = time.Now()
	for time.Since(start) < microTime {
		for i, pt := range points {
			if pt.Work.Deterministic() {
				continue
			}
			for _, ch := range seqs[i] {
				sum += pt.Work.ChunkTime(ch.start, ch.count, r)
				draws++
			}
		}
		if draws == 0 {
			return chunkNs, 0
		}
	}
	drawSink = sum
	return chunkNs, float64(time.Since(start)) / float64(draws)
}
