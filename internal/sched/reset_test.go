package sched

import (
	"testing"
)

// driveTrace runs a scheduler to exhaustion under a deterministic
// synthetic master loop — round-robin workers, pseudo-random elapsed
// times fed back through Report so adaptive techniques accumulate state —
// and returns the full (worker, chunk) sequence.
func driveTrace(s Scheduler, p int) []int64 {
	var trace []int64
	now := 0.0
	// Small LCG for reproducible per-chunk execution-time jitter; the
	// values only need to vary, not be statistically sound.
	lcg := uint64(12345)
	jitter := func() float64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return 0.5 + float64(lcg>>40)/float64(1<<25)
	}
	for i := 0; ; i++ {
		w := i % p
		chunk := s.Next(w, now)
		trace = append(trace, int64(w), chunk)
		if s.Remaining() == 0 && chunk == 0 {
			// Drain the finalization requests of the other workers too,
			// then stop; the invariants tests cover exhaustion behaviour.
			break
		}
		if chunk == 0 {
			continue
		}
		elapsed := float64(chunk) * jitter()
		now += elapsed / float64(p)
		s.Report(w, chunk, elapsed, now)
	}
	return trace
}

// TestResetReproducesFreshScheduler: for every technique, Reset must
// restore the exact post-construction state — the chunk trace after a
// Reset equals both the first trace and a freshly constructed
// scheduler's trace. This is what lets the engine's run arenas reuse one
// scheduler across thousands of replications without changing a bit of
// output.
func TestResetReproducesFreshScheduler(t *testing.T) {
	params := Params{
		N: 4096, P: 4,
		H: 0.3, Mu: 1.0, Sigma: 0.5,
		Weights: []float64{1, 2, 3, 4},
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, params)
			if err != nil {
				t.Fatal(err)
			}
			first := driveTrace(s, params.P)

			s.Reset()
			if got, want := s.Remaining(), params.N; got != want {
				t.Fatalf("after Reset: Remaining() = %d, want %d", got, want)
			}
			if got := s.Chunks(); got != 0 {
				t.Fatalf("after Reset: Chunks() = %d, want 0", got)
			}
			again := driveTrace(s, params.P)

			fresh, err := New(name, params)
			if err != nil {
				t.Fatal(err)
			}
			ref := driveTrace(fresh, params.P)

			if len(first) != len(ref) {
				t.Fatalf("first trace length %d != fresh trace length %d", len(first), len(ref))
			}
			for i := range ref {
				if first[i] != ref[i] {
					t.Fatalf("first run diverges from fresh scheduler at step %d: %d != %d", i/2, first[i], ref[i])
				}
				if again[i] != ref[i] {
					t.Fatalf("post-Reset run diverges from fresh scheduler at step %d: %d != %d", i/2, again[i], ref[i])
				}
			}
		})
	}
}

// TestResetMidRun: resetting a partially executed scheduler (state mid
// batch, outstanding chunks in flight) still restores the initial state.
func TestResetMidRun(t *testing.T) {
	params := Params{N: 1000, P: 3, H: 0.2, Mu: 1, Sigma: 1}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, params)
			if err != nil {
				t.Fatal(err)
			}
			ref := driveTrace(s, params.P)

			s.Reset()
			// Execute a few operations without reporting some of them,
			// leaving batch counters and outstanding-task state dirty.
			for i := 0; i < 5; i++ {
				if c := s.Next(i%params.P, float64(i)); c > 0 && i%2 == 0 {
					s.Report(i%params.P, c, float64(c)*1.5, float64(i)+1)
				}
			}
			s.Reset()
			if got := driveTrace(s, params.P); len(got) != len(ref) {
				t.Fatalf("trace length after dirty Reset: %d, want %d", len(got), len(ref))
			} else {
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("dirty Reset diverges at step %d", i/2)
					}
				}
			}
		})
	}
}
