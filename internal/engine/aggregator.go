package engine

import "context"

// Aggregator is the exported face of the pipeline's aggregation sink: it
// folds an ordered event stream into a CampaignResult, exactly as
// CampaignSpec.Execute does internally. Its purpose is client-side
// aggregation — a consumer of a remote result stream (per-run metrics
// decoded from JSON Lines) feeds the events through an Aggregator and
// obtains aggregates bit-identical to the ones the producing server
// computed, because both sides run this same fold over the same metrics
// in the same (point, replication) order.
//
// Close returns an error if any grid point saw fewer events than the
// spec's replication count, so a truncated stream can never silently
// yield partial aggregates.
type Aggregator struct {
	sink *aggregateSink
}

// NewAggregator returns an Aggregator for the spec's grid. With
// keepPerRun, the per-run metrics are retained in each Aggregate (the
// paper's Figure 9 analysis needs them).
func (s CampaignSpec) NewAggregator(keepPerRun bool) (*Aggregator, error) {
	points, err := s.Points()
	if err != nil {
		return nil, err
	}
	return &Aggregator{sink: newAggregateSink(points, s.Replications, keepPerRun, false)}, nil
}

// Consume implements Sink.
func (a *Aggregator) Consume(ctx context.Context, ev Event) error { return a.sink.Consume(ctx, ev) }

// Close implements Sink, validating that every point saw its full
// replication count.
func (a *Aggregator) Close() error { return a.sink.Close() }

// Result assembles the campaign result from the consumed events. Call it
// after Close has succeeded.
func (a *Aggregator) Result() *CampaignResult {
	return &CampaignResult{Aggregates: a.sink.Aggregates(), Overall: a.sink.Overall()}
}
