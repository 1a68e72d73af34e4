package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// These tests are the H13-style determinism gate of the campaign
// pipeline. goldenSpec's output — the JSONL event stream and the
// aggregate float bits — is pinned to committed sha256 digests for every
// backend and seed policy, and every execution shape must reproduce
// them: any worker count, any chunk size, the amortized Runner or the
// plain Backend.Run route, aggregate-only or with per-run sinks
// attached. A single differing byte means a change leaked into
// simulation output.

// goldenDigests holds the pinned digests, keyed "backend/policy": the
// sha256 of goldenSpec's JSONL stream and of its aggregateBits. They
// were generated while the runner path, the per-replication
// Backend.Run path, the aggregate fast path and the ordered event path
// all still existed and agreed byte for byte. A deliberate change to
// simulation output must regenerate them (the failure message prints
// the new values).
var goldenDigests = map[string]struct{ stream, aggs string }{
	"sim/cell":   {"b091b79974ad0cf464672f0d73572becb8a41750e617c39531e5072bf2c30e83", "ce01e525f11582098f715a81d06f5e13f58da9d97a0c68e6a365b1de7435bf72"},
	"sim/flat":   {"6475cc5ce5d519367fa32dd7362e8777633ed29d4a5227175950b88a5ec389cb", "d777e26c1fe7d509aea187b6e0c38c36521fabc33f263a0337df7791366b7500"},
	"sim/facade": {"81766a1d9786d95841d26a3394cc887e3828919e065f1a78c3be0ea039850b7e", "43cc8562641e213171f28fe1e215803bb101a14417928d3e0bf1fb7badf7f25f"},
	"sim/shared": {"7ff3049f26c791a393635eaa20e86a1bc11eae521a4cc93908076b87777e424c", "6c67c8b2d76ef75e81eb3bdd52e3ab29918d455c55a257df6761086e23320dcf"},
	"des/cell":   {"b091b79974ad0cf464672f0d73572becb8a41750e617c39531e5072bf2c30e83", "ce01e525f11582098f715a81d06f5e13f58da9d97a0c68e6a365b1de7435bf72"},
	"des/flat":   {"6475cc5ce5d519367fa32dd7362e8777633ed29d4a5227175950b88a5ec389cb", "d777e26c1fe7d509aea187b6e0c38c36521fabc33f263a0337df7791366b7500"},
	"des/facade": {"81766a1d9786d95841d26a3394cc887e3828919e065f1a78c3be0ea039850b7e", "43cc8562641e213171f28fe1e215803bb101a14417928d3e0bf1fb7badf7f25f"},
	"des/shared": {"7ff3049f26c791a393635eaa20e86a1bc11eae521a4cc93908076b87777e424c", "6c67c8b2d76ef75e81eb3bdd52e3ab29918d455c55a257df6761086e23320dcf"},
	"msg/cell":   {"fe2eaec9024b1ffb2d9c9419c4049b1566c516c6696e9d6cc202d71a5bc5821c", "4c42e709d82b30961a0dccccd6c841807f5d6dc7cff75f22ca41bbcaea5fc4cd"},
	"msg/flat":   {"3c0b25a2f80e208ec5c1466005f9f554acc358365953b5528ddfa4b8cb3a39d7", "edd85a98d28722d653d0172bfc94799b6489d741244ab8c1156b8f0fd5e35b2b"},
	"msg/facade": {"136c21010a7825abaa1feaf907f636041f790acd8624fda14d9f9ec018465bc5", "94a77a62f8095a37f2e2e542131c28fb87fea99af13f06f9834e8a0fdfeeca5f"},
	"msg/shared": {"c064f411789d1a899cea568e899d8fe6d8b4c975351b9a5a293cbd110ea1e589", "ab45291fc195cefc96a700dcd9257e80f1dc5b601a33eabad360bcbb2ad4c6b5"},
}

// aggregateBits serializes every aggregate statistic and the overall
// roll-up as raw IEEE-754 bits, in the cache codec's snapshot layout.
func aggregateBits(res *CampaignResult) []byte {
	var b []byte
	for _, a := range res.Aggregates {
		b = putSummary(b, a.Wasted)
		b = putSummary(b, a.Makespan)
		b = putSummary(b, a.Speedup)
		b = putF64(b, a.MeanOps)
	}
	return putAccumulator(b, res.Overall)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares a run's output against the digests pinned for
// key. A nil stream skips the stream digest (aggregate-only runs).
func checkGolden(t *testing.T, key, label string, stream []byte, res *CampaignResult) {
	t.Helper()
	want, ok := goldenDigests[key]
	if !ok {
		t.Fatalf("%s: no golden digests pinned for %q", label, key)
	}
	if stream != nil {
		if got := sha256Hex(stream); got != want.stream {
			t.Errorf("%s: JSONL stream digest %s, pinned %s", label, got, want.stream)
		}
	}
	if got := sha256Hex(aggregateBits(res)); got != want.aggs {
		t.Errorf("%s: aggregate digest %s, pinned %s", label, got, want.aggs)
	}
}

// goldenRun executes the spec's campaign. With stream it attaches a
// JSONL sink and retains full results (KeepRuns, which exercises the
// arena-result Clone path); without it the campaign is aggregate-only
// and the returned stream is nil. chunkSize 0 auto-sizes.
func goldenRun(t *testing.T, spec CampaignSpec, workers, chunkSize int, stream bool, sinks ...Sink) ([]byte, *CampaignResult) {
	t.Helper()
	c, err := spec.Compile(workers)
	if err != nil {
		t.Fatal(err)
	}
	c.ChunkSize = chunkSize
	var buf *bytes.Buffer
	if stream {
		buf = new(bytes.Buffer)
		c.KeepRuns = true
		sinks = append(sinks, NewJSONLSink(buf))
	}
	res, err := c.RunWith(context.Background(), sinks...)
	if err != nil {
		t.Fatal(err)
	}
	if buf == nil {
		return nil, res
	}
	return buf.Bytes(), res
}

func goldenSpec(backend string) CampaignSpec {
	return CampaignSpec{
		Backend:      backend,
		Techniques:   []string{"GSS", "FAC2", "BOLD"},
		Ns:           []int64{256},
		Ps:           []int{4},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.25,
		Replications: 6,
		Seed:         20170601,
	}
}

// forGoldenCases runs fn as one subtest per backend × seed policy,
// named "backend/policy" (the goldenDigests key).
func forGoldenCases(t *testing.T, fn func(t *testing.T, key string, spec CampaignSpec)) {
	for _, backend := range []string{"sim", "des", "msg"} {
		for _, policy := range []string{SeedPerCell, SeedFlat, SeedFacade, SeedShared} {
			key := backend + "/" + policy
			t.Run(key, func(t *testing.T) {
				spec := goldenSpec(backend)
				spec.SeedPolicy = policy
				fn(t, key, spec)
			})
		}
	}
}

// plainBackend exposes a built-in backend without its Runner path, so a
// campaign on it takes the engine's route for plain Backends: one full
// Backend.Run (validate, build, allocate) per replication.
type plainBackend string

func (b plainBackend) Name() string { return "plain-" + string(b) }

func (b plainBackend) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	be, err := New(string(b))
	if err != nil {
		return nil, err
	}
	return be.Run(ctx, spec)
}

func init() {
	for _, name := range []string{"sim", "des", "msg"} {
		Register(plainBackend(name))
	}
}

// TestGoldenDeterminismRunnerVsNaive: for all three backends and all
// four seed policies, both routes through a backend — its amortized
// Runner and the plain Backend.Run route — reproduce the pinned JSONL
// stream and aggregates at several worker counts.
func TestGoldenDeterminismRunnerVsNaive(t *testing.T) {
	forGoldenCases(t, func(t *testing.T, key string, spec CampaignSpec) {
		backend := spec.Backend
		for _, be := range []string{backend, "plain-" + backend} {
			spec.Backend = be
			for _, workers := range []int{1, 4} {
				stream, res := goldenRun(t, spec, workers, 0, true)
				checkGolden(t, key, fmt.Sprintf("%s/workers=%d", be, workers), stream, res)
			}
		}
	})
}

// TestGoldenDeterminismRetainedResults: with KeepRuns, every retained
// result equals a fresh Backend.Run of its spec field by field — a
// shallow alias of a recycled runner buffer would diverge here — and
// reaches the sinks on its run's Event. Retained results are distinct
// allocations.
func TestGoldenDeterminismRetainedResults(t *testing.T) {
	spec := goldenSpec("sim")
	rec := &eventRecorder{}
	_, res := goldenRun(t, spec, 4, 0, true, rec)
	points, err := spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	be, err := New("sim")
	if err != nil {
		t.Fatal(err)
	}
	seedFor := spec.seedFunc(points)
	if len(rec.events) != len(points)*spec.Replications {
		t.Fatalf("sinks saw %d events, want %d", len(rec.events), len(points)*spec.Replications)
	}
	for pi, pt := range points {
		rs := res.Aggregates[pi].Results
		if len(rs) != spec.Replications {
			t.Fatalf("point %d: retained %d results, want %d", pi, len(rs), spec.Replications)
		}
		for rep, got := range rs {
			run := pt
			run.RNGState = seedFor(pi, rep)
			want, err := be.Run(context.Background(), run)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("point %d rep %d: retained result differs from a fresh Backend.Run", pi, rep)
			}
			if ev := rec.events[pi*spec.Replications+rep]; ev.Result != got {
				t.Fatalf("point %d rep %d: event carries a different result than the aggregate retained", pi, rep)
			}
		}
		// Cloned results must be distinct allocations, not arena aliases.
		for i := 1; i < len(rs); i++ {
			if &rs[i].Compute[0] == &rs[i-1].Compute[0] {
				t.Fatalf("point %d: results %d and %d share a Compute buffer", pi, i-1, i)
			}
		}
	}
}

// TestGoldenDeterminismChunkedVsPerRun pins the batched pipeline: for
// every backend, every seed policy and a spread of worker counts and
// chunk sizes — including chunk=1 (one run per work item) and chunk=7 >
// Replications=6 (clamped to one chunk per point) — both an
// aggregate-only campaign and one streaming JSONL reproduce the pinned
// digests. Chunking is scheduling only; a differing byte means batching
// leaked into simulation output.
func TestGoldenDeterminismChunkedVsPerRun(t *testing.T) {
	forGoldenCases(t, func(t *testing.T, key string, spec CampaignSpec) {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, chunk := range []int{1, 2, 4, 7} {
				for _, stream := range []bool{false, true} {
					label := fmt.Sprintf("workers=%d chunk=%d jsonl=%v", workers, chunk, stream)
					got, res := goldenRun(t, spec, workers, chunk, stream)
					checkGolden(t, key, label, got, res)
				}
			}
		}
	})
}

// TestGoldenDeterminismAcrossBackendsStable pins the cross-backend
// equivalence on the runner path: sim and des execute identical dynamics
// and must deliver identical streams for the same spec (msg differs by
// construction: message timing enters the makespan).
func TestGoldenDeterminismAcrossBackendsStable(t *testing.T) {
	simStream, _ := goldenRun(t, goldenSpec("sim"), 3, 0, true)
	desStream, _ := goldenRun(t, goldenSpec("des"), 3, 0, true)
	// The streams embed no backend name, so equal dynamics mean equal
	// bytes.
	if !bytes.Equal(simStream, desStream) {
		t.Error("sim and des runner-path streams diverge on free-network dynamics")
	}
}
