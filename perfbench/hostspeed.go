package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host's speed drifts by tens of percent over minutes on a shared
// virtual machine, with CPU time moving with wall time, so no statistic
// over the passes of one run removes it. The timed metrics of the
// workloads that keep the vCPUs busy are therefore scaled to a reference
// host: a fixed kernel is timed before the set-ups, after them, and
// after every stretch of about refEvery of passes, and the run's host
// speed is the median of those readings. The kernel is the benchmark's
// own code, so a change to the program under test cannot move it.

const (
	// refHeap is the kernel's event-heap size. A reading times refSegs
	// segments of refSeg steps on each goroutine, about 0.1 s in all.
	refHeap = 256
	refSeg  = 1 << 16
	refSegs = 16
	// refNominalNs is the kernel's time per step on the reference host:
	// the typical reading on the 2-vCPU machine the bounds were set on,
	// so its host speeds sit around 1.
	refNominalNs = 100.0
	// refEvery is how much pass time may go by between readings.
	refEvery = time.Second
)

// refKernel advances a binary min-heap of refHeap event times by steps
// exponential draws from a xorshift generator — the event-heap and
// logarithm work of the sim backend — and returns the last time popped,
// so the work cannot be optimized away. It allocates nothing.
func refKernel(steps int, seed uint64) float64 {
	var h [refHeap]float64
	x := seed*0x9e3779b97f4a7c15 | 1
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	for i := range h {
		h[i] = next()
	}
	sort.Float64s(h[:]) // a sorted array is a min-heap
	var t float64
	for s := 0; s < steps; s++ {
		t = h[0]
		v := t - math.Log(1-next())
		i := 0
		for {
			c := 2*i + 1
			if c >= refHeap {
				break
			}
			if c+1 < refHeap && h[c+1] < h[c] {
				c++
			}
			if v <= h[c] {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = v
	}
	return t
}

// refSink keeps the kernel's results alive.
var refSink float64

// readSpeed runs refSegs kernel segments on each of workers goroutines
// at once, as many as the workloads keep busy, and returns the host
// speed: refNominalNs over the mean, across goroutines, of each one's
// median segment time per step; above 1 on a faster host. The median
// drops the segments a preemption cut into, and the mean weighs each
// vCPU alike, as the workloads spread their work over all of them. A
// collection first ends the garbage collector's work on what ran before.
func readSpeed(workers int) float64 {
	runtime.GC() // no collection of the work before runs alongside the kernel
	ns := make([][refSegs]float64, workers)
	last := make([]float64, workers)
	var wg sync.WaitGroup
	for g := range ns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ns[g] {
				start := time.Now()
				last[g] = refKernel(refSeg, uint64(g*refSegs+s)+1)
				ns[g][s] = float64(time.Since(start)) / refSeg
			}
		}()
	}
	wg.Wait()
	var mean float64
	for g := range ns {
		refSink += last[g]
		mean += median(ns[g][:]) / float64(workers)
	}
	return refNominalNs / mean
}
