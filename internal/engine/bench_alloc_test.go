package engine

import (
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/workload"
)

// Allocation-tracking benchmarks for the campaign pipeline. The
// trajectory tool (cmd/benchtraj) records absolute runs/sec; these guard
// the per-run allocation profile in relative terms:
//
//	go test -bench 'Alloc' -benchmem ./internal/engine/
//
// benchSpec is the same shape the trajectory document measures — two
// points, exponential workload — scaled for go test iteration counts.
func benchSpec(reps int) CampaignSpec {
	return CampaignSpec{
		Techniques:   []string{"FAC2", "GSS"},
		Ns:           []int64{4096},
		Ps:           []int{8},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: reps,
		Seed:         20170601,
	}
}

func benchCampaign(b *testing.B, workers int) {
	b.Helper()
	c, err := benchSpec(50).Compile(workers)
	if err != nil {
		b.Fatal(err)
	}
	runs := len(c.Points) * c.Replications
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runs), "runs/op")
}

// BenchmarkCampaignStreamAlloc measures the full streaming pipeline —
// runner arenas, batched delivery, ring reorder, aggregation — at one
// worker and at GOMAXPROCS. allocs/op divided by runs/op is the per-run
// allocation cost the tentpole attacks.
func BenchmarkCampaignStreamAlloc(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchCampaign(b, 1) })
	b.Run("workers=N", func(b *testing.B) { benchCampaign(b, 0) })
}

// BenchmarkAggregateSinkAlloc isolates the reduction stage: consuming
// one ordered event stream into per-point aggregates.
func BenchmarkAggregateSinkAlloc(b *testing.B) {
	spec := benchSpec(100)
	points, err := spec.Points()
	if err != nil {
		b.Fatal(err)
	}
	ev := Event{Spec: points[0], Metrics: RunMetrics{Wasted: 1.5, Makespan: 600, Speedup: 6, SchedOps: 40}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newAggregateSink(points, spec.Replications, false, false)
		for pi := range points {
			ev.Point = pi
			for rep := 0; rep < spec.Replications; rep++ {
				ev.Rep = rep
				if err := s.Consume(ctx, ev); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		s.Aggregates()
	}
}

// checkAllocationBudget is the campaign-level allocation gate over the
// one execution path, on a 5000-run grid so fixed campaign setup
// amortizes away: a campaign delivering to sinks must stay at or below
// allocs allocations and byteCap bytes per run. It measures
// sequentially, with the collector off so a GC emptying the
// chunk-buffer pools cannot add refills to the counts.
func checkAllocationBudget(t *testing.T, sinks []Sink, allocs, byteCap float64) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 5000
	c, err := benchSpec(runs / 2).Compile(1) // 2 points × 2500 reps
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := c.RunWith(context.Background(), sinks...); err != nil {
			t.Fatal(err)
		}
	}
	gotAllocs := testing.AllocsPerRun(2, run) / runs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	gotBytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.4f allocs and %.1f bytes per run", gotAllocs, gotBytes)
	if gotAllocs > allocs {
		t.Errorf("%.4f allocs per run, budget is %.4f", gotAllocs, allocs)
	}
	if gotBytes > byteCap {
		t.Errorf("%.1f bytes per run, budget is %.0f", gotBytes, byteCap)
	}
}

// TestAggregateFastPathAllocationBudget: aggregate-only, the campaign
// must stay at or below 0.05 allocations per run, effectively zero
// steady-state allocation. Its bytes per run (about 75) are mostly the
// aggregation's own 32-byte record per run.
func TestAggregateFastPathAllocationBudget(t *testing.T) {
	checkAllocationBudget(t, nil, 0.05, 100)
}

// TestCampaignAllocationBudget: with a JSONL sink attached, the campaign
// must stay at or below 1.0116 allocations per run (the encoder boxes
// one row per run), the count the pipeline measured when it still built
// a []Event batch per chunk. Bytes per run guard those batches: they
// cost about 250 of the 405 bytes per run the old ordered path
// allocated here.
func TestCampaignAllocationBudget(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop items at random, so the
		// JSON encoder's pooled state is reallocated per run there.
		t.Skip("allocation counts of pooled encoder state are unstable under -race")
	}
	checkAllocationBudget(t, []Sink{NewJSONLSink(io.Discard)}, 1.0116, 200)
}
