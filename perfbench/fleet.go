package main

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/campaign"
	"repro/campaign/distrib"
	"repro/client"
	"repro/internal/chaos"
	"repro/internal/jobs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The fleet-skew workload: one sharded campaign per pass across
// fleetNodes(cfg) in-process dlsimd nodes with one worker each, through the
// coordinator `dlsim -servers` builds (retrying clients, default
// options). The last node is the straggler: before every campaign it is
// re-armed with the CI chaos smoke's heavy latency rule. The values come
// from the repository's own fleet runs (.github/workflows/ci.yml): the
// fleet and chaos smoke jobs shard their campaign 5 ways, and their spec
// is fleetSpec's shape.
const (
	fleetShards  = 5                     // more shards than nodes
	fleetLatency = 50 * time.Millisecond // the heavy profile's "slow-status" rule
	fleetFirstN  = 5
	// fleetHeapPasses is the number of passes peak_heap_mb is taken over.
	fleetHeapPasses = 60
)

// fleetNodes is the fleet size: one node per CPU, and at least two so
// that one of them can be the straggler.
func fleetNodes(cfg config) int { return max(2, cfg.workers) }

// fleetSpec is pass k's campaign (k = -1: set-up's), the CI fleet smoke
// spec — FAC2, GSS, TSS × n ∈ {1024, 4096} × p = 8, exponential µ = 1,
// h = 0.5, 25 replications — under a fresh seed per pass, so every pass
// computes.
func fleetSpec(seed uint64, k int) campaign.Spec {
	return campaign.Spec{
		Techniques:   []string{"FAC2", "GSS", "TSS"},
		Ns:           []int64{1024, 4096},
		Ps:           []int{8},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: 25,
		Seed:         rng.Mix64(seed ^ uint64(k+1)<<16 ^ 0x666c656574),
	}
}

// fleetChaosRule delays the straggler's first job-route GETs (status
// polls and result streams) of a campaign.
func fleetChaosRule() chaos.Rule {
	return chaos.Rule{Name: "slow-status", Method: http.MethodGet, Path: "/v1/jobs", Fault: chaos.FaultLatency,
		Latency: chaos.Duration(fleetLatency), FirstN: fleetFirstN}
}

// straggler injects faults through the engine armed for the current
// campaign, if any, and counts the faults of every engine it armed.
type straggler struct {
	cur      atomic.Pointer[chaos.Engine]
	injected int64 // faults of the engines already replaced
}

// arm replaces the current engine with a fresh one.
func (s *straggler) arm(e *chaos.Engine) {
	if old := s.cur.Swap(e); old != nil {
		s.injected += old.Injected()
	}
}

// total is the number of faults injected so far.
func (s *straggler) total() int64 {
	n := s.injected
	if e := s.cur.Load(); e != nil {
		n += e.Injected()
	}
	return n
}

func (s *straggler) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e := s.cur.Load(); e != nil {
			chaos.WrapHandler(h, e).ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// fleet is one coordinator over its nodes.
type fleet struct {
	nodes []*node
	coord *distrib.Coordinator
	chaos *straggler
	doers []*countingDoer
}

func (f *fleet) close() {
	_ = f.coord.Close() // always nil
	f.closeNodes()
}

func startFleet(cfg config, tr *tracer) (*fleet, error) {
	f := &fleet{chaos: &straggler{}}
	var runners []campaign.Runner
	nodes := fleetNodes(cfg)
	for i := 0; i < nodes; i++ {
		opts := nodeOptions{workers: 1, tr: tr}
		if i == nodes-1 {
			opts.wrap = f.chaos.wrap
		}
		n, err := startNode(opts)
		if err != nil {
			f.closeNodes()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		copts := []client.Option{client.WithOptions(client.Options{Retry: client.DefaultRetry})}
		if tr != nil {
			d := &countingDoer{inner: &http.Client{}, tr: tr}
			f.doers = append(f.doers, d)
			copts = append(copts, client.WithDoer(d))
		}
		cl, err := client.New(n.url, copts...)
		if err != nil {
			f.closeNodes()
			return nil, err
		}
		if err := cl.Live(context.Background()); err != nil {
			f.closeNodes()
			return nil, err
		}
		runners = append(runners, cl)
	}
	coord, err := distrib.New(runners, distrib.Options{Shards: fleetShards})
	if err != nil {
		f.closeNodes()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

func (f *fleet) closeNodes() {
	for _, n := range f.nodes {
		n.close()
	}
}

// fleetStats accumulates the coordination metrics of traced passes.
type fleetStats struct {
	shards, stragglerShards int
	busy, capacity          time.Duration
	tailIdle                time.Duration
	passes                  int
}

func runFleet(ctx context.Context, cfg config, o *outcome) error {
	o.record("fleet", fmt.Sprintf("%d in-process dlsimd nodes × 1 worker, %d shards, default coordinator options with retrying clients", fleetNodes(cfg), fleetShards))
	o.record("straggler", fmt.Sprintf("node %d: before every campaign, a fresh chaos engine delays its first %d GET %s requests by %v (chaos seed derived from the workload seed and the pass; the first_n rule draws nothing from it)", fleetNodes(cfg)-1, fleetFirstN, "/v1/jobs", fleetLatency))
	sp := fleetSpec(cfg.seed, 0)
	o.record("campaign", fmt.Sprintf("%v × n=%v × p=%v, exponential µ=1, h=0.5, %d replications (%d runs), fresh seed per pass", sp.Techniques, sp.Ns, sp.Ps, sp.Replications, specRuns(sp)))

	// Set-up: start every node, the fault wrapper, the clients and the
	// coordinator, then run one sharded campaign (straggler disarmed) up
	// to its last merged event. The kept fleet's stream is checked like
	// every other.
	specs := []campaign.Spec{fleetSpec(cfg.seed, -1)}
	var warmDigest string
	f, err := timeSetups(cfg, o, setups, func() (*fleet, error) {
		f, err := startFleet(cfg, nil)
		if err != nil {
			return nil, err
		}
		hw := newHashWriter()
		if _, err := campaign.Run(ctx, f.coord, specs[0], campaign.NewJSONLSink(hw)); err != nil {
			f.close()
			return nil, err
		}
		warmDigest = hw.sum()
		return f, nil
	}, (*fleet).close)
	if err != nil {
		return err
	}
	defer f.close()

	var tf *fleet
	var tb *tracedBackend
	if cfg.tr != nil {
		if tb, err = traceBackend("sim", cfg.tr); err != nil {
			return err
		}
		if tf, err = startFleet(cfg, cfg.tr); err != nil {
			return err
		}
		defer tf.close()
	}

	var (
		digests  = map[int][]string{0: {warmDigest}}
		acc      fleetStats
		tBackend backendTotals
	)
	err = measure(cfg, o, func(traced bool) (pass, error) {
		fl := f
		spec := fleetSpec(cfg.seed, len(specs)-1)
		specs = append(specs, spec)
		var before backendTotals
		if traced {
			fl = tf
			spec.Backend = tb.name
			before = tb.stats.totals()
		}
		eng, err := chaos.NewEngine(rng.Mix64(cfg.seed^0x6368616f73^uint64(len(specs))<<32), fleetChaosRule())
		if err != nil {
			return pass{}, err
		}
		fl.chaos.arm(eng)
		hw := newHashWriter()
		start := time.Now()
		p, err := timePass(traced, func(p *pass) error {
			_, err := campaign.Run(ctx, fl.coord, spec, campaign.NewJSONLSink(hw))
			return err
		})
		if err != nil {
			return p, err
		}
		end := start.Add(p.wall)
		p.runs, p.jobs = specRuns(spec), 1
		p.latency = []float64{float64(p.wall) / 1e6}
		digests[len(specs)-1] = append(digests[len(specs)-1], hw.sum())
		if traced {
			p.backend = tb.stats.totals().sub(before)
			tBackend = tBackend.add(p.backend)
			acc.add(fl, start, end)
		}
		return p, nil
	})
	if err != nil {
		return err
	}

	// Correctness: every merged stream equals a local run, and the
	// straggler's fault rule really fired.
	verifyStreams(ctx, o, "fleet-skew", specs, digests, cfg.workers)
	o.chk.check(f.chaos.total() > 0, "fleet-skew: the straggler's chaos engine injected no faults")
	o.record("faults injected", fmt.Sprint(f.chaos.total()))

	if cfg.tr != nil {
		o.chk.check(tf.chaos.total() > 0, "fleet-skew traced: the straggler's chaos engine injected no faults")
		var snaps []jobs.Snapshot
		var delivered int64
		var mallocs uint64
		var exec time.Duration
		for _, p := range o.passesOf(true) {
			delivered += p.runs
			mallocs += p.mallocs
		}
		for _, n := range tf.nodes {
			for _, s := range n.jobTimes(time.Time{}) {
				snaps = append(snaps, s)
				exec += s.FinishedAt.Sub(*s.StartedAt)
			}
		}
		jobLayers(o, snaps)
		engineLayers(o, tBackend, float64(exec), mallocs, delivered)
		var stores []*timedStore
		var routes []*routeStats
		for _, n := range tf.nodes {
			stores = append(stores, n.store)
			routes = append(routes, n.routes)
		}
		storeLayers(o, stores...)
		serviceLayers(o, delivered, routes...)
		clientLayers(o, int64(acc.passes), tf.doers...)
		if acc.passes > 0 {
			o.layers["distrib.shards_per_node"] = float64(acc.shards) / float64(acc.passes*len(tf.nodes))
			o.layers["distrib.straggler_share"] = float64(acc.stragglerShards) / float64(acc.shards)
			o.layers["distrib.node_busy_ratio"] = float64(acc.busy) / float64(acc.capacity)
			o.layers["distrib.tail_idle_s"] = acc.tailIdle.Seconds() / float64(acc.passes)
		}
		if delivered > 0 {
			o.layers["distrib.runs_executed_ratio"] = float64(tBackend.runs()) / float64(delivered)
		}
		o.layers["sched.chunk_ns"], o.layers["workload.draw_ns"] = schedAndDrawNs(specPoints(specs[:min(len(specs), 20)]...), cfg.seed)
	}
	return nil
}

// add folds one traced campaign, [start, end), into the coordination
// metrics: the shard jobs each node ran, how busy the nodes were, and
// how long the fast nodes sat idle waiting for the straggler.
func (a *fleetStats) add(f *fleet, start, end time.Time) {
	a.passes++
	a.capacity += end.Sub(start) * time.Duration(len(f.nodes))
	var fastLast time.Time
	for i, n := range f.nodes {
		snaps := n.jobTimes(start)
		a.shards += len(snaps)
		straggler := i == len(f.nodes)-1
		if straggler {
			a.stragglerShards += len(snaps)
		}
		for _, s := range snaps {
			a.busy += s.FinishedAt.Sub(*s.StartedAt)
			if !straggler && s.FinishedAt.After(fastLast) {
				fastLast = *s.FinishedAt
			}
		}
	}
	if !fastLast.IsZero() {
		a.tailIdle += end.Sub(fastLast)
	}
}
