// Command perfbench is the repository's benchmark. It drives the system
// through the entry points its users call — experiment.RunHagerup and
// RunTzen as cmd/repro does, client.Client against an in-process dlsimd
// as `dlsim -server` does, and the campaign/distrib coordinator as
// `dlsim -servers` does — checks every output for correctness, and
// prints one JSON result line.
//
//	perfbench --workload fig5-sim --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a traced run plus the tracing overhead, and
// writes the run's spans once, at exit, under .bench_build/spans/.
// --workload all runs every workload in turn. README.md explains the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// benchWorkload is one named input set and the code that drives it.
// heapPasses is the number of untraced passes, from the first, over
// which peak_heap_mb is taken (config.heapPasses); hostBound scales its
// timed metrics to the reference host (config.hostBound).
type benchWorkload struct {
	name       string
	run        func(ctx context.Context, cfg config, o *outcome) error
	heapPasses int
	hostBound  bool
}

var workloads = []benchWorkload{
	{"fig5-sim", runFig5, 6, true},
	{"fig3-msg", runFig3, 1, true},
	{"service-mix", runMix, mixHeapRounds, true},
	{"fleet-skew", runFleet, fleetHeapPasses, false},
}

// valueUnit is one metric in the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fset.String("workload", "", "workload to run: fig5-sim, fig3-msg, service-mix, fleet-skew or all")
		seed    = fset.Uint64("seed", 1, "workload seed; every generated input derives from it")
		seconds = fset.Float64("seconds", 20, "how long one run measures, in seconds")
		trace   = fset.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
		share   = fset.Float64("hit-share", 0.5, "service-mix: share of each round's jobs that repeat an earlier spec, a multiple of 1/8 up to 0.5")
	)
	if err := fset.Parse(args); err != nil {
		return 2
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	if err := validateDefs(names, endToEnd, perLayer); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	hits := *share * mixBlock
	if hits != math.Trunc(hits) || hits < 0 || hits > mixBlock/2 {
		fmt.Fprintf(os.Stderr, "perfbench: --hit-share must be a multiple of 1/%d from 0 to 0.5\n", mixBlock)
		return 2
	}
	var selected []benchWorkload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.NumCPU(), mixHits: int(hits)}
	code := 0
	for _, w := range selected {
		if c := runOne(w, cfg, stdout); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload and prints its report and result line.
func runOne(w benchWorkload, cfg config, stdout io.Writer) int {
	if cfg.trace {
		cfg.tr = newTracer()
	}
	cfg.heapPasses, cfg.hostBound = w.heapPasses, w.hostBound
	tr := cfg.tr
	o := &outcome{layers: map[string]float64{}}
	recordEnv(o, w.name, cfg)
	if err := w.run(context.Background(), cfg, o); err != nil {
		o.chk.fail(err)
	}
	res := summarize(cfg, o)
	fmt.Fprintf(stdout, "== perfbench %s (trace %v)\n", w.name, cfg.trace)
	for _, line := range o.info {
		fmt.Fprintln(stdout, "  "+line)
	}
	printMetrics(stdout, res, cfg, o)
	if tr != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stdout, "  spans: write failed:", err)
		} else {
			fmt.Fprintf(stdout, "  spans: %d written to %s (%d dropped past the in-memory cap)\n", len(tr.spans), path, tr.dropped)
		}
	}
	fmt.Fprintf(stdout, "  checks: %d attempted, %d failed, failed_ratio %.6g\n", o.chk.attempted, o.chk.failed, o.chk.failedRatio())
	for _, f := range o.chk.failures {
		fmt.Fprintln(stdout, "  FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// summarize turns an outcome into the result line: end-to-end metrics
// from untraced passes, or per-layer metrics from a traced run.
func summarize(cfg config, o *outcome) result {
	res := result{Metrics: map[string]valueUnit{}}
	vals := map[string]float64{}
	defs := endToEnd
	untraced := o.passesOf(false)
	if !cfg.trace {
		var rates, jobRates, lats []float64
		var alloc uint64
		var runs int64
		// Timed metrics are scaled to the reference host: set-ups always,
		// passes of host-bound workloads.
		s, ps := o.hostSpeed(), o.passSpeed(cfg)
		for _, p := range untraced {
			rates = append(rates, p.runsPerS()/ps)
			jobRates = append(jobRates, p.jobsPerS()/ps)
			for _, l := range p.latency {
				lats = append(lats, l*ps)
			}
			alloc += p.alloc
			runs += p.runs
		}
		vals["setup_s"] = median(o.setup) * s
		vals["runs_per_s"] = median(rates)
		vals["jobs_per_s"] = median(jobRates)
		vals["latency_p50_ms"] = median(lats)
		vals["peak_heap_mb"] = percentile(o.live, heapPct) / 1e6
		if runs > 0 {
			vals["alloc_bytes_per_run"] = float64(alloc) / float64(runs)
		}
	} else {
		defs = perLayer
		for k, v := range o.layers {
			vals[k] = v
		}
		traced := o.passesOf(true)
		var lats, tRates, uRates []float64
		for _, p := range traced {
			lats = append(lats, p.latency...)
			tRates = append(tRates, p.runsPerS())
		}
		for _, p := range untraced {
			uRates = append(uRates, p.runsPerS())
		}
		if t, ok := tailOf(lats); ok {
			vals["latency_tail_ms"] = t.Value
		}
		if len(tRates) > 0 && len(uRates) > 0 {
			vals["trace.overhead_pct"] = (median(uRates)/median(tRates) - 1) * 100
		}
	}
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.chk.check(false, "metric %s is not finite", d.Name)
			v = 0
		}
		res.Metrics[d.Name] = valueUnit{Value: v, Unit: d.Unit}
	}
	if o.chk.attempted == 0 {
		o.chk.check(false, "no output was checked")
	}
	res.Attempted, res.Failed = o.chk.attempted, o.chk.failed
	res.Correct = res.Failed == 0
	return res
}

// maxPassLines bounds the per-pass lines of the report.
const maxPassLines = 12

// printMetrics prints every reported metric by name with its unit.
func printMetrics(w io.Writer, res result, cfg config, o *outcome) {
	traced := cfg.trace
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	var setups []string
	for _, s := range o.setup {
		setups = append(setups, fmt.Sprintf("%.4g", s*1e3))
	}
	fmt.Fprintf(w, "  set-ups (ms): %s\n", strings.Join(setups, " "))
	var lats []float64
	sp := o.passSpeed(cfg) // per-layer metrics are as measured
	if traced {
		sp = 1
	}
	passes := o.passesOf(traced)
	for i, p := range passes {
		for _, l := range p.latency {
			lats = append(lats, l*sp)
		}
		if i < maxPassLines {
			fmt.Fprintf(w, "  pass %d: %d runs, %d jobs in %.4gs (%.6g runs/s), %.4g CPU-s\n",
				i, p.runs, p.jobs, p.wall.Seconds(), p.runsPerS(), p.cpu.Seconds())
		}
	}
	if len(passes) > maxPassLines {
		fmt.Fprintf(w, "  ... %d passes in all\n", len(passes))
	}
	if n := len(o.speeds); n > 0 {
		rd := append([]float64(nil), o.speeds...)
		sort.Float64s(rd)
		use := "the metrics above scale set-up times by it"
		if cfg.hostBound {
			use = "the metrics above scale set-up and pass times by it"
		}
		if traced {
			use = "per-layer metrics are not scaled by it"
		}
		fmt.Fprintf(w, "  host speed (reference kernel at %g ns/step ÷ reading): median %.4g of %d readings, min %.4g, max %.4g; %s, the lines above are as measured\n",
			refNominalNs, o.hostSpeed(), n, rd[0], rd[n-1], use)
	}
	if n := len(o.live); n > 0 && !traced {
		fmt.Fprintf(w, "  live heap over the first %d passes, %d GC cycles (MB): p50 %.4g  p90 %.4g  p99 %.4g  max %.4g\n", min(len(passes), cfg.heapPasses), n,
			percentile(o.live, 50)/1e6, percentile(o.live, 90)/1e6, percentile(o.live, 99)/1e6, o.live[n-1]/1e6)
	}
	if t, ok := tailOf(lats); ok {
		fmt.Fprintf(w, "  latency tail: p%g = %.6g ms over %d jobs (%d beyond)\n", t.Pct, t.Value, t.N, t.Beyond)
	} else {
		fmt.Fprintf(w, "  latency tail: none (%d jobs; a tail needs at least 10 samples beyond the median)\n", len(lats))
	}
}

// recordEnv records the environment and inputs the run depends on.
func recordEnv(o *outcome, name string, cfg config) {
	o.record("workload", name)
	o.record("seed", fmt.Sprint(cfg.seed))
	o.record("seconds", fmt.Sprint(cfg.seconds))
	o.record("nproc", fmt.Sprint(runtime.NumCPU()))
	o.record("GOMAXPROCS", fmt.Sprint(runtime.GOMAXPROCS(0)))
	o.record("load", fmt.Sprintf("%d worker goroutines / clients / nodes (nproc)", cfg.workers))
	o.record("go", runtime.Version())
	o.record("commit", commit())
	o.record("source_sha256", sourceDigest("."))
}

// commit returns the VCS revision stamped into the binary, if any.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built from a git checkout; see source_sha256)"
}

// sourceDigest hashes every Go source and module file under root, so a
// run identifies the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
