// Package campaign is the public vocabulary of the simulator's
// execution layer: declarative campaign specifications, per-run event
// streaming, result aggregation, and the Runner interface that makes
// local and remote execution interchangeable.
//
// A campaign is the unit of every experiment in the reproduced paper: a
// (technique × n × p) grid of independent simulated loop executions,
// replicated many times (the paper uses 1000) under a deterministic
// seed policy. A Spec describes a campaign as plain data — it
// serializes to JSON, round-trips losslessly, and has a canonical hash
// under which results are content-addressed. Execution is
// bit-deterministic in the spec: two executions of the same spec, on
// any worker count, on any Runner, produce identical per-run metrics,
// identical result streams and identical aggregates.
//
// # Runners
//
// A Runner executes campaigns asynchronously: Submit enqueues a spec
// and returns a job handle, Wait blocks for the terminal state, Stream
// delivers the deterministic per-run Event sequence to Sinks, Cancel
// aborts, and Describe reports the runner's capabilities (techniques,
// backends, seed policies). Two implementations exist:
//
//   - LocalRunner (this package) executes in-process through the
//     engine's worker pool, content-addressed result store and
//     context-aware cancellation plumbing.
//   - client.Client (package repro/client) speaks the dlsimd daemon's
//     /v1 HTTP API, so the same campaign runs on a remote service.
//   - distrib.Coordinator (package repro/campaign/distrib) shards one
//     campaign across a fleet of Runners — replication windows become
//     ordinary sub-specs via Spec.RepOffset — and merges the streams
//     bit-identically to a single-node run, retrying failed or
//     straggling shards on surviving nodes.
//
// The Execute and Run helpers drive any Runner end-to-end and return
// aggregated results; because aggregation is a deterministic fold over
// the event stream (Aggregator), a remote execution aggregated
// client-side is bit-identical to a local one.
//
// # Sinks
//
// Sinks observe campaign output. Every Sink receives one Event per run
// in deterministic (point, replication) order, whatever the worker
// count, chunk size or cache state — what the CSV and JSONL exporters
// need. Aggregator is an ordinary Sink folding that stream into
// aggregates.
//
//	spec := campaign.Spec{
//	    Techniques:   []string{"FAC2", "GSS"},
//	    Ns:           []int64{8192},
//	    Ps:           []int{64},
//	    Workload:     campaign.Workload{Kind: "exponential", P1: 1},
//	    H:            0.5,
//	    Replications: 1000,
//	    Seed:         42,
//	}
//	r := campaign.NewLocal(campaign.LocalConfig{})
//	defer r.Close()
//	res, err := campaign.Run(ctx, r, spec)
//
// The root package repro remains the scalar convenience facade; it is a
// thin layer over a LocalRunner.
package campaign
