package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/campaign"
	"repro/client"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The service-mix workload: a closed loop of cfg.workers clients, each
// submitting campaigns to one in-process dlsimd and streaming the
// per-run JSONL back, as `dlsim -server URL -spec s.json -out r.jsonl`
// does. Each client's round (one pass) is mixBlock jobs: fresh specs
// (cache misses: compute, encode, put) and cfg.mixHits repeats, each of
// a different fresh spec of the same client and round, later in the
// round (cache hits: get, decode, replay).
//
// The repository records no service traffic, so the mix is built from
// its own precedents: every spec has the shape of the SDK example's
// campaign (examples/client), and the default hit share 0.5 is
// cmd/benchtraj's cold-then-warm resubmission of each spec — equally
// internal/recur's second tick of a schedule. mixBlock is an assumption:
// it only bounds how far back in a client's history a repeat reaches.
const (
	mixBlock = 8
	// mixHeapRounds is the number of rounds peak_heap_mb is taken over.
	mixHeapRounds = 40
)

// mixJob is one planned submission: specs[spec], fresh or a repeat.
type mixJob struct {
	spec int
	hit  bool
}

// mixDone is one completed submission.
type mixDone struct {
	mixJob
	runs    int64
	latency float64 // ms, submit to last streamed event
	digest  string
}

// mixPlan appends client c's fresh specs for round k to specs and
// returns the round's jobs: mixBlock−hits fresh specs, hits of them
// repeated once each, every repeat after its fresh submission, in a
// seeded order. Everything derives from the workload seed.
func mixPlan(seed uint64, k, c, hits int, specs *[]campaign.Spec) []mixJob {
	sm := rng.NewSplitMix64(rng.Mix64(seed ^ uint64(k)<<20 ^ uint64(c)<<8 ^ 0x6d6978))
	fresh := mixBlock - hits
	repeat := make([]bool, fresh) // which fresh specs are repeated
	for _, i := range permutation(sm, fresh)[:hits] {
		repeat[i] = true
	}
	var plan []mixJob
	var pending []int // repeats whose fresh submission is already planned
	for next := 0; len(plan) < mixBlock; {
		if len(pending) > 0 && (next == fresh || sm.Next()%2 == 0) {
			j := int(sm.Next() % uint64(len(pending)))
			plan = append(plan, mixJob{spec: pending[j], hit: true})
			pending = append(pending[:j], pending[j+1:]...)
			continue
		}
		*specs = append(*specs, mixSpec(sm.Next()))
		plan = append(plan, mixJob{spec: len(*specs) - 1})
		if repeat[next] {
			pending = append(pending, len(*specs)-1)
		}
		next++
	}
	return plan
}

// permutation is a seeded Fisher–Yates shuffle of 0..n-1.
func permutation(sm *rng.SplitMix64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(sm.Next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// mixSpec is the SDK example's campaign (examples/client: one cell of
// Figure 6 — FAC2, GSS and BOLD × n = 8192 × p = 64, exponential µ = 1,
// h = 0.5, 50 replications) under the given seed.
func mixSpec(seed uint64) campaign.Spec {
	return campaign.Spec{
		Techniques:   []string{"FAC2", "GSS", "BOLD"},
		Ns:           []int64{8192},
		Ps:           []int{64},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: 50,
		Seed:         seed,
	}
}

// mixWarmupSpec is the spec set-up submits, on a seed stream of its own.
func mixWarmupSpec(seed uint64) campaign.Spec {
	return mixSpec(rng.Mix64(seed ^ 0x7761726d7570)) // "warmup"
}

func specRuns(s campaign.Spec) int64 {
	return int64(len(s.Techniques)*len(s.Ns)*len(s.Ps)) * int64(s.Replications)
}

// mixStack is one service plus its clients.
type mixStack struct {
	node    *node
	clients []*client.Client
	doers   []*countingDoer
}

func startMix(workers int, tr *tracer) (*mixStack, error) {
	n, err := startNode(nodeOptions{tr: tr})
	if err != nil {
		return nil, err
	}
	st := &mixStack{node: n}
	for c := 0; c < workers; c++ {
		var opts []client.Option
		if tr != nil {
			d := &countingDoer{inner: &http.Client{}, tr: tr}
			st.doers = append(st.doers, d)
			opts = append(opts, client.WithDoer(d))
		}
		cl, err := client.New(n.url, opts...)
		if err != nil {
			n.close()
			return nil, err
		}
		if err := cl.Live(context.Background()); err != nil {
			n.close()
			return nil, err
		}
		st.clients = append(st.clients, cl)
	}
	return st, nil
}

func runMix(ctx context.Context, cfg config, o *outcome) error {
	o.record("clients", fmt.Sprintf("%d, closed loop, one job in flight each", cfg.workers))
	o.record("round", fmt.Sprintf("%d jobs per client, %d of them repeats (hit share %.3g)", mixBlock, cfg.mixHits, float64(cfg.mixHits)/mixBlock))
	o.record("specs", "the SDK example's campaign (examples/client): FAC2, GSS, BOLD × n=8192 × p=64, exponential µ=1, h=0.5, 50 replications, seeded")
	o.record("service", "in-process dlsimd defaults: memory store, queue 64, 1 campaign at a time, GOMAXPROCS workers")

	// Set-up: start the service and its clients, then run one fresh
	// campaign through the first client, up to its last streamed event.
	// The kept stack's warm-up stream is checked like every other.
	specs := []campaign.Spec{mixWarmupSpec(cfg.seed)}
	var warmDigest string
	st, err := timeSetups(cfg, o, setups, func() (*mixStack, error) {
		s, err := startMix(cfg.workers, nil)
		if err != nil {
			return nil, err
		}
		hw := newHashWriter()
		if _, err := campaign.Run(ctx, s.clients[0], specs[0], campaign.NewJSONLSink(hw)); err != nil {
			s.node.close()
			return nil, err
		}
		warmDigest = hw.sum()
		return s, nil
	}, func(s *mixStack) { s.node.close() })
	if err != nil {
		return err
	}
	defer st.node.close()
	var base storeCounts
	base.hits, base.misses, base.puts = st.node.counted.Stats()

	var ts *mixStack
	var tb *tracedBackend
	if cfg.tr != nil {
		if tb, err = traceBackend("sim", cfg.tr); err != nil {
			return err
		}
		if ts, err = startMix(cfg.workers, cfg.tr); err != nil {
			return err
		}
		defer ts.node.close()
	}

	var (
		digests  = map[int][]string{0: {warmDigest}}
		done     = map[bool][]mixDone{} // by traced
		round    int
		tBackend backendTotals
	)
	err = measure(cfg, o, func(traced bool) (pass, error) {
		stack := st
		if traced {
			stack = ts
		}
		plans := make([][]mixJob, len(stack.clients))
		for c := range plans {
			plans[c] = mixPlan(cfg.seed, round, c, cfg.mixHits, &specs)
		}
		round++
		results := make([][]mixDone, len(stack.clients))
		var before backendTotals
		if traced {
			before = tb.stats.totals()
		}
		p, err := timePass(traced, func(p *pass) error {
			var wg sync.WaitGroup
			errs := make([]error, len(stack.clients))
			for c, cl := range stack.clients {
				wg.Add(1)
				go func(c int, cl *client.Client) {
					defer wg.Done()
					for _, job := range plans[c] {
						spec := specs[job.spec]
						if traced {
							spec.Backend = tb.name
						}
						hw := newHashWriter()
						start := time.Now()
						if _, err := campaign.Run(ctx, cl, spec, campaign.NewJSONLSink(hw)); err != nil {
							errs[c] = err
							return
						}
						results[c] = append(results[c], mixDone{mixJob: job, runs: specRuns(spec),
							latency: float64(time.Since(start)) / 1e6, digest: hw.sum()})
					}
				}(c, cl)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return p, err
		}
		if traced {
			p.backend = tb.stats.totals().sub(before)
			tBackend = tBackend.add(p.backend)
		}
		for _, rs := range results {
			for _, d := range rs {
				p.jobs++
				p.runs += d.runs
				p.latency = append(p.latency, d.latency)
				digests[d.spec] = append(digests[d.spec], d.digest)
				done[traced] = append(done[traced], d)
			}
		}
		return p, nil
	})
	if err != nil {
		return err
	}

	// Correctness: every stream equals an in-process Execute of its
	// spec, and hits perform zero backend runs — the store saw exactly
	// one miss and one put per fresh job, and one hit per results replay
	// plus one per repeat.
	verifyStreams(ctx, o, "service-mix", specs, digests, cfg.workers)
	checkHitAccounting(o, "service-mix", st.node, base, done[false])
	if ts != nil {
		checkHitAccounting(o, "service-mix traced", ts.node, storeCounts{}, done[true])
		var freshRuns int64
		for _, d := range done[true] {
			if !d.hit {
				freshRuns += d.runs
			}
		}
		o.chk.check(tBackend.runs() == freshRuns, "service-mix traced: backend ran %d runs, fresh jobs need %d (hits must run none)", tBackend.runs(), freshRuns)
	}

	if cfg.tr != nil {
		mixLayers(o, done[false])
		traced := o.passesOf(true)
		var delivered int64
		var mallocs uint64
		for _, p := range traced {
			delivered += p.runs
			mallocs += p.mallocs
		}
		snaps := ts.node.jobTimes(time.Time{})
		jobLayers(o, snaps)
		// Engine capacity: the executing time of the jobs that computed
		// (the first job of each spec hash) times the campaign workers.
		seen := map[string]bool{}
		var exec time.Duration
		sort.Slice(snaps, func(i, j int) bool { return snaps[i].CreatedAt.Before(snaps[j].CreatedAt) })
		for _, s := range snaps {
			if !seen[s.Hash] {
				seen[s.Hash] = true
				exec += s.FinishedAt.Sub(*s.StartedAt)
			}
		}
		engineLayers(o, tBackend, float64(exec)*float64(cfg.workers), mallocs, delivered)
		storeLayers(o, ts.node.store)
		serviceLayers(o, delivered, ts.node.routes)
		clientLayers(o, int64(len(done[true])), ts.doers...)
		o.layers["sched.chunk_ns"], o.layers["workload.draw_ns"] = schedAndDrawNs(specPoints(specs[1:min(len(specs), 21)]...), cfg.seed)
	}
	return nil
}

// storeCounts are a store's hit, miss and put counters.
type storeCounts struct{ hits, misses, puts int64 }

// checkHitAccounting checks a node's store counters, less base, against
// the jobs it served: a fresh job misses once and puts once, and its
// results replay hits once; a repeat hits once to run and once to
// replay.
func checkHitAccounting(o *outcome, what string, n *node, base storeCounts, done []mixDone) {
	var fresh, hits int64
	for _, d := range done {
		if d.hit {
			hits++
		} else {
			fresh++
		}
	}
	h, m, p := n.counted.Stats()
	h, m, p = h-base.hits, m-base.misses, p-base.puts
	o.chk.check(m == fresh && p == fresh && h == fresh+2*hits,
		"%s: store saw %d hits, %d misses, %d puts; %d fresh jobs and %d repeats need %d, %d, %d",
		what, h, m, p, fresh, hits, fresh+2*hits, fresh, fresh)
}

// mixLayers fills the hit/miss latency split from untraced passes.
func mixLayers(o *outcome, done []mixDone) {
	var hit, miss []float64
	for _, d := range done {
		if d.hit {
			hit = append(hit, d.latency)
		} else {
			miss = append(miss, d.latency)
		}
	}
	if len(done) == 0 {
		return
	}
	o.layers["mix.hit_share"] = float64(len(hit)) / float64(len(done))
	for _, c := range []struct {
		name string
		lat  []float64
	}{{"hit", hit}, {"miss", miss}} {
		o.layers["mix."+c.name+"_latency_p50_ms"] = median(c.lat)
		if t, ok := tailOf(c.lat); ok {
			o.layers["mix."+c.name+"_latency_tail_ms"] = t.Value
			o.record(c.name+" latency tail", fmt.Sprintf("p%g = %.4g ms over %d jobs (%d beyond)", t.Pct, t.Value, t.N, t.Beyond))
		}
	}
}
