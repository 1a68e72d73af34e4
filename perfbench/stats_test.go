package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailOf must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
		ok     bool
	}{
		{n: 19, ok: false}, // median rank 10, 9 beyond
		{n: 20, pct: 50, value: 10, beyond: 10, ok: true},
		{n: 99, pct: 50, value: 50, beyond: 49, ok: true}, // p90 rank 90: 9 beyond
		{n: 100, pct: 90, value: 90, beyond: 10, ok: true},
		{n: 999, pct: 90, value: 900, beyond: 99, ok: true},
		{n: 1000, pct: 99, value: 990, beyond: 10, ok: true},
		{n: 10000, pct: 99.9, value: 9990, beyond: 10, ok: true},
		{n: 100000, pct: 99.99, value: 99990, beyond: 10, ok: true},
	} {
		got, ok := tailOf(seq(tc.n))
		if ok != tc.ok {
			t.Fatalf("n=%d: ok=%v, want %v", tc.n, ok, tc.ok)
		}
		if !ok {
			if got.N != tc.n {
				t.Errorf("n=%d: sample count %d", tc.n, got.N)
			}
			continue
		}
		want := tail{Pct: tc.pct, Value: tc.value, N: tc.n, Beyond: tc.beyond}
		if got != want {
			t.Errorf("n=%d: tail %+v, want %+v", tc.n, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %v", m)
	}
}

func TestFailedRatioAccounting(t *testing.T) {
	var c checks
	if c.failedRatio() != 0 {
		t.Fatal("empty checks must have failed_ratio 0")
	}
	c.check(true, "ok")
	c.check(false, "wrong output %d", 1)
	c.fail(errors.New("could not run"))
	c.check(true, "ok")
	if c.attempted != 4 || c.failed != 2 || c.failedRatio() != 0.5 {
		t.Errorf("attempted %d failed %d ratio %v, want 4 2 0.5", c.attempted, c.failed, c.failedRatio())
	}
	if len(c.failures) != 2 || c.failures[0] != "wrong output 1" || c.failures[1] != "could not run" {
		t.Errorf("failures %q", c.failures)
	}
}

func TestFailedCheckMakesResultIncorrect(t *testing.T) {
	o := &outcome{layers: map[string]float64{}}
	o.chk.check(true, "ok")
	o.chk.check(false, "bad")
	res := summarize(config{}, o)
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("result %+v, want incorrect with 2 attempted, 1 failed", res)
	}
	// Nothing checked is not a pass.
	res = summarize(config{}, &outcome{layers: map[string]float64{}})
	if res.Correct || res.Attempted < 1 {
		t.Errorf("result %+v, want incorrect with attempted ≥ 1", res)
	}
}

func TestNameValidation(t *testing.T) {
	good := []metricDef{{"runs_per_s", "1/s"}, {"sim.run_us.large_p", "us"}, {"9lives-x", "%"}}
	if err := validateDefs([]string{"fig5-sim"}, good); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	for _, bad := range [][]metricDef{
		{{"has space", "s"}},
		{{"_leading", "s"}},
		{{"semi;colon", "s"}},
		{{"a2345678901234567890123456789012345678901234567890123456789012345", "s"}}, // 65 long
		{{"dup", "s"}, {"dup", "ms"}},
		{{"unit", "m s"}},
		{{"unit", "a2345678901234567"}},
	} {
		if err := validateDefs(nil, bad); err == nil {
			t.Errorf("invalid metrics %v accepted", bad)
		}
	}
	if err := validateDefs([]string{"fig5 sim"}); err == nil {
		t.Error("invalid workload name accepted")
	}
	if err := validateDefs([]string{"a", "a"}); err == nil {
		t.Error("duplicate workload name accepted")
	}
}

// TestBenchmarkJSONMatchesReport pins BENCHMARK.json to what the command
// prints: the same workloads, and the same metric names and units.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the command", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind      string
		json, cmd []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.cmd) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the command", c.kind, len(c.json), len(c.cmd))
		}
		for i := range c.json {
			if c.json[i] != c.cmd[i] {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the command", c.kind, i, c.json[i], c.cmd[i])
			}
		}
	}
}

func TestHostSpeedScalesTimedMetrics(t *testing.T) {
	if a := testing.AllocsPerRun(3, func() { refKernel(1000, 1) }); a != 0 {
		t.Errorf("reference kernel allocates %v times per reading", a)
	}
	if refKernel(1000, 1) != refKernel(1000, 1) {
		t.Error("reference kernel is not deterministic")
	}

	// Every run reads the host speed around its set-ups and scales their
	// times by the median reading; a host-bound run also reads it between
	// its passes and scales their rates and latencies.
	body := func(traced bool) (pass, error) {
		p, err := timePass(traced, func(*pass) error { time.Sleep(20 * time.Millisecond); return nil })
		p.runs, p.jobs, p.latency = 100, 1, []float64{float64(p.wall) / 1e6}
		return p, err
	}
	for _, scaled := range []bool{true, false} {
		cfg := config{seconds: 0.3, workers: 1, hostBound: scaled}
		o := &outcome{layers: map[string]float64{}}
		if _, err := timeSetups(cfg, o, 3, func() (int, error) { return 0, nil }, func(int) {}); err != nil {
			t.Fatal(err)
		}
		if err := measure(cfg, o, body); err != nil {
			t.Fatal(err)
		}
		if got, want := len(o.speeds) > 2, scaled; got != want || len(o.speeds) < 2 {
			t.Fatalf("host-bound %v: %d host speed readings", scaled, len(o.speeds))
		}
		s := o.hostSpeed()
		if got := o.passSpeed(cfg); (scaled && got != s) || (!scaled && got != 1) {
			t.Errorf("host-bound %v: passes scaled by %v, host speed %v", scaled, got, s)
		}
		var rates []float64
		for _, p := range o.passes {
			rates = append(rates, p.runsPerS())
		}
		res := summarize(cfg, o)
		if got, want := res.Metrics["runs_per_s"].Value, median(rates)/o.passSpeed(cfg); math.Abs(got-want) > 1e-9*want {
			t.Errorf("scaled %v: runs_per_s %v, want %v", scaled, got, want)
		}
		if got, want := res.Metrics["setup_s"].Value, median(o.setup)*s; math.Abs(got-want) > 1e-9*want {
			t.Errorf("scaled %v: setup_s %v, want %v", scaled, got, want)
		}
	}
}
