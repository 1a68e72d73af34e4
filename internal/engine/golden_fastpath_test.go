package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// eventRecorder is a plain Sink retaining every event it is handed.
type eventRecorder struct {
	events []Event
}

func (s *eventRecorder) Consume(_ context.Context, ev Event) error {
	s.events = append(s.events, ev)
	return nil
}

func (s *eventRecorder) Close() error { return nil }

// TestGoldenFastPathVsOrdered pins every aggregate-only arrangement of a
// campaign — Campaign.Run with no sink, an attached Aggregator, an
// Aggregator mixed with an event-recording sink, and CampaignSpec.Execute
// — to the committed aggregate digests, for all three backends, all four
// seed policies, several worker counts and chunk sizes (0 auto-sizes,
// 1 is one run per chunk, 7 > Replications=6 clamps to one chunk per
// point). Every attached sink observes the full stream in deterministic
// (point, replication) order, each event carrying its run's spec with
// the derived RNGState.
func TestGoldenFastPathVsOrdered(t *testing.T) {
	forGoldenCases(t, func(t *testing.T, key string, spec CampaignSpec) {
		for _, workers := range []int{1, 4, 8} {
			for _, chunk := range []int{0, 1, 7} {
				label := fmt.Sprintf("workers=%d chunk=%d", workers, chunk)
				_, res := goldenRun(t, spec, workers, chunk, false)
				checkGolden(t, key, label+" no sink", nil, res)

				agg, err := spec.NewAggregator(false)
				if err != nil {
					t.Fatal(err)
				}
				_, res = goldenRun(t, spec, workers, chunk, false, agg)
				checkGolden(t, key, label+" aggregator", nil, res)
				checkGolden(t, key, label+" aggregator result", nil, agg.Result())

				agg, _ = spec.NewAggregator(false)
				rec := &eventRecorder{}
				_, res = goldenRun(t, spec, workers, chunk, false, agg, rec)
				checkGolden(t, key, label+" mixed sinks", nil, agg.Result())
				checkEventStream(t, label, spec, rec.events)
				for i, ev := range rec.events {
					if ev.Result != nil {
						t.Fatalf("%s: event %d carries a full result without KeepRuns", label, i)
					}
				}

				res, err = spec.Execute(context.Background(), ExecConfig{Workers: workers, ChunkSize: chunk})
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, key, label+" execute", nil, res)
			}
		}
	})
}

// checkEventStream asserts that events is the campaign's full stream in
// deterministic (point, replication) order, each event carrying its
// run's spec with the derived RNGState.
func checkEventStream(t *testing.T, label string, spec CampaignSpec, events []Event) {
	t.Helper()
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	if runs := len(points) * spec.Replications; len(events) != runs {
		t.Fatalf("%s: sink saw %d events, want %d", label, len(events), runs)
	}
	seedFor := spec.seedFunc(points)
	for i, ev := range events {
		if ev.Point != i/spec.Replications || ev.Rep != i%spec.Replications {
			t.Fatalf("%s: event %d out of order: point=%d rep=%d", label, i, ev.Point, ev.Rep)
		}
		if want := seedFor(ev.Point, ev.Rep); ev.Spec.RNGState != want || ev.Spec.Technique != points[ev.Point].Technique {
			t.Fatalf("%s: event %d carries spec %s/%#x, want %s/%#x", label, i,
				ev.Spec.Technique, ev.Spec.RNGState, points[ev.Point].Technique, want)
		}
	}
}

// TestFastPathMixedSinksDisableBypass: an Aggregator attached next to a
// plain per-run sink leaves delivery unchanged for both. The plain sink
// sees the full ordered stream, and the Aggregator's result and the
// campaign's own agree bit for bit with an aggregate-only run and with
// the pinned digest.
func TestFastPathMixedSinksDisableBypass(t *testing.T) {
	const key = "sim/" + SeedPerCell
	spec := goldenSpec("sim")
	spec.SeedPolicy = SeedPerCell
	_, ref := goldenRun(t, spec, 4, 0, false)
	checkGolden(t, key, "aggregate-only", nil, ref)

	agg, err := spec.NewAggregator(false)
	if err != nil {
		t.Fatal(err)
	}
	rec := &eventRecorder{}
	_, res := goldenRun(t, spec, 4, 0, false, agg, rec)
	checkEventStream(t, "mixed sinks", spec, rec.events)
	for _, got := range []*CampaignResult{res, agg.Result()} {
		if !reflect.DeepEqual(got.Aggregates, ref.Aggregates) || got.Overall != ref.Overall {
			t.Fatal("mixed-sink run disagrees with the aggregate-only run")
		}
		checkGolden(t, key, "mixed sinks", nil, got)
	}
}

// TestFastPathKeepRunsDisablesBypass: under KeepRuns every attached
// sink receives each run's full result on its Event, the very result
// the campaign retains, and an attached per-run Aggregator keeps the
// same per-run metrics as the campaign. Retaining results leaves the
// aggregates at the pinned digest.
func TestFastPathKeepRunsDisablesBypass(t *testing.T) {
	const key = "sim/" + SeedPerCell
	spec := goldenSpec("sim")
	spec.SeedPolicy = SeedPerCell
	c, err := spec.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	c.KeepRuns = true
	agg, err := spec.NewAggregator(true)
	if err != nil {
		t.Fatal(err)
	}
	rec := &eventRecorder{}
	res, err := c.RunWith(context.Background(), agg, rec)
	if err != nil {
		t.Fatal(err)
	}
	checkEventStream(t, "KeepRuns", spec, rec.events)
	kept := agg.Result()
	for i, ev := range rec.events {
		want := res.Aggregates[ev.Point].Results[ev.Rep]
		if ev.Result == nil || ev.Result != want {
			t.Fatalf("event %d: carries result %p, campaign retained %p", i, ev.Result, want)
		}
	}
	for pi := range res.Aggregates {
		if !reflect.DeepEqual(kept.Aggregates[pi].PerRun, res.Aggregates[pi].PerRun) {
			t.Fatalf("point %d: Aggregator per-run metrics differ from the campaign's", pi)
		}
	}
	checkGolden(t, key, "KeepRuns", nil, res)
	checkGolden(t, key, "KeepRuns aggregator", nil, kept)
}
