package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees, reported by every
// untraced run (--trace 0). Each workload defines its "job" — the unit a
// user submits and waits for — in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"alloc_bytes_per_run", "B"},
}

// perLayer lists the metrics of single layers, reported by every traced
// run (--trace 1). A layer a workload does not exercise (or cannot be
// observed on it from outside) reports 0.
var perLayer = []metricDef{
	{"workload.draws_per_run", "count"},
	{"workload.draw_ns", "ns"},
	{"sched.ops_per_run", "count"},
	{"sched.chunk_ns", "ns"},
	{"sim.run_us.small_p", "us"},
	{"sim.run_us.large_p", "us"},
	{"msg.run_ms", "ms"},
	{"msg.host_us_per_op", "us"},
	{"msg.allocs_per_op", "count"},
	{"engine.backend_busy_ratio", "ratio"},
	{"engine.self_us_per_run", "us"},
	{"engine.allocs_per_run", "count"},
	{"cache.get_us", "us"},
	{"cache.put_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.entry_bytes", "B"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.exec_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.results_ms", "ms"},
	{"service.results_bytes_per_run", "B"},
	{"client.requests_per_job", "count"},
	{"client.rtt_ms", "ms"},
	{"client.retries", "count"},
	{"distrib.shards_per_node", "count"},
	{"distrib.straggler_share", "ratio"},
	{"distrib.node_busy_ratio", "ratio"},
	{"distrib.tail_idle_s", "s"},
	{"distrib.runs_executed_ratio", "ratio"},
	{"mix.hit_share", "ratio"},
	{"mix.hit_latency_p50_ms", "ms"},
	{"mix.hit_latency_tail_ms", "ms"},
	{"mix.miss_latency_p50_ms", "ms"},
	{"mix.miss_latency_tail_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks metric and workload names against the report
// vocabulary: names start with a letter or digit, use only letters,
// digits, '_', '.' and '-', are at most 64 long and are unique.
func validateDefs(workloads []string, defs ...[]metricDef) error {
	seen := make(map[string]bool)
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[kind+"/"+name] {
			return fmt.Errorf("duplicate %s name %q", kind, name)
		}
		seen[kind+"/"+name] = true
		return nil
	}
	for _, w := range workloads {
		if err := use("workload", w); err != nil {
			return err
		}
	}
	for _, list := range defs {
		for _, d := range list {
			if err := use("metric", d.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(d.Unit) {
				return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
			}
		}
	}
	return nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-th percentile of sorted xs; 0
// for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q/100*float64(len(sorted)) - 1e-9))
	return sorted[max(rank, 1)-1]
}

// heapPct is the percentile of the per-cycle live heap reported as
// peak_heap_mb: the high-water mark less the top tenth of cycles,
// whose values depend on which goroutines happen to be mid-flight when a
// collection ends.
const heapPct = 90

// tailPercentiles are the candidate tail percentiles, highest last.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tail is a latency tail: the value at percentile Pct (nearest rank) of
// N samples, with Beyond samples strictly above that rank.
type tail struct {
	Pct    float64
	Value  float64
	N      int
	Beyond int
}

// tailOf returns the highest candidate percentile that still has at
// least ten samples beyond it. ok is false when even the median has
// fewer than ten samples beyond it (fewer than 20 samples).
func tailOf(xs []float64) (t tail, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		q := tailPercentiles[i]
		rank := max(int(math.Ceil(q/100*float64(len(s))-1e-9)), 1) // nearest rank, robust to q/100 rounding
		if beyond := len(s) - rank; beyond >= 10 {
			return tail{Pct: q, Value: s[rank-1], N: len(s), Beyond: beyond}, true
		}
	}
	return tail{N: len(s)}, false
}

// checks accounts correctness: every checked output counts as attempted,
// every wrong or failed one as failed.
type checks struct {
	attempted int64
	failed    int64
	failures  []string
}

// check records one checked output.
func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// fail records an output that could not be produced at all.
func (c *checks) fail(err error) { c.check(false, "%v", err) }

// failedRatio is failed ÷ attempted; 0 when nothing was attempted.
func (c *checks) failedRatio() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}
