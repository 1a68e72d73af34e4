package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// loopGridDigest is the sha256 of every Result field (resultBits) over
// the technique × start-time × seed grid of TestFastLoopMatchesGenericLoop.
// It was generated while RunInto still dispatched the paper-faithful
// configuration to a specialized inner loop and both loops agreed bit
// for bit. A deliberate change to simulation output must regenerate it
// (the failure message prints the new value).
const loopGridDigest = "986dc95798296866c057d0ff5be48749abc5ed5805cee715e69affba863ede82"

// resultBits feeds every field of r into h as raw bits.
func resultBits(h hash.Hash, r *Result) {
	var b []byte
	f := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	i := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	f(r.Makespan)
	i(r.SchedOps)
	f(r.CommTime)
	f(r.MasterBusy)
	for w := range r.Compute {
		f(r.Compute[w])
		f(r.Finish[w])
		i(r.OpsPerWorker[w])
		i(r.TasksPerWorker[w])
	}
	h.Write(b)
}

// TestFastLoopMatchesGenericLoop pins the simulator's output over every
// technique, even and uneven start times and three seeds to
// loopGridDigest. Each configuration runs three ways that must agree:
// plain, with unit Speeds (exec/1.0 is bit-exact) and with a no-op
// Observe hook.
func TestFastLoopMatchesGenericLoop(t *testing.T) {
	const n, p = 4096, 8
	unit := make([]float64, p)
	for i := range unit {
		unit[i] = 1
	}
	starts := []float64{0, 0.5, 0, 1.25, 0, 0, 2, 0}
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"unit-speeds", func(c *Config) { c.Speeds = unit }},
		{"observe", func(c *Config) { c.Observe = func(int, int64, int64, float64, float64) {} }},
	}
	for _, v := range variants {
		h := sha256.New()
		for _, tech := range sched.Names() {
			for _, withStarts := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := Config{
						P:     p,
						Sched: mustSched(t, tech, sched.Params{N: n, P: p, H: 0.5, Mu: 1, Sigma: 1}),
						Work:  workload.NewExponential(1),
						RNG:   rng.FromState(rng.RunSeed(seed, 0)),
						H:     0.5,
					}
					if withStarts {
						cfg.StartTimes = starts
					}
					v.mut(&cfg)
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s: Run(%s): %v", v.name, tech, err)
					}
					resultBits(h, res)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != loopGridDigest {
			t.Errorf("%s: result grid digest %s, pinned %s", v.name, got, loopGridDigest)
		}
	}
}
