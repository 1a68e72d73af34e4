package engine

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"repro/internal/metrics"
)

// This file implements the cache's binary entry codec (format version 2):
// every run's metrics in a fixed-width binary layout plus a
// pre-aggregated snapshot section:
//
//	offset  size  field
//	0       4     magic "DLSB"
//	4       2     format version (uint16, = 2)
//	6       2     flags (bit 0: snapshot section present)
//	8       4     points (uint32)
//	12      4     replications (uint32)
//	16      2     spec-hash length (uint16), then the hash bytes
//	...           snapshot section (when flagged):
//	                overall Accumulator (6 × 8 bytes)
//	                per point: Wasted, Makespan, Speedup summaries
//	                (6 × 8 bytes each) + MeanOps (8 bytes)
//	...           per-run records, (point, replication) order:
//	                Wasted, Makespan, Speedup (float64) + SchedOps
//	                (int64) — 32 bytes per run
//	end     8     FNV-1a 64 checksum of all preceding bytes
//
// All integers and float bit patterns are little-endian; floats are
// stored as their IEEE-754 bits, so every value (including -0, ±Inf and
// NaN payloads) round-trips bit-exactly — the property the replay path's
// bit-identical-aggregates guarantee rests on. The trailing checksum
// turns silent corruption (a flipped bit would otherwise decode into a
// plausible float) into a detected mismatch, which demotes the hit to a
// miss and falls back to a live run.
//
// The snapshot section stores the campaign's final aggregates exactly as
// the live run computed them, so an aggregate-only hit (no per-run
// sinks, no KeepPerRun) is served without touching the per-run records
// at all. Any other blob — including the version-1 JSON entries of
// earlier builds — fails to decode and is treated as a miss: the store is
// a cache, so the campaign runs live and overwrites it.

const (
	// cacheBinaryVersion is the binary entry format this build writes.
	cacheBinaryVersion = 2

	snapFlagPresent = 1 << 0

	runRecordSize   = 32                // Wasted, Makespan, Speedup, SchedOps
	accumulatorSize = 6 * 8             // Count, Sum, MeanV, M2, MinV, MaxV
	summarySize     = 6 * 8             // N, Mean, Std, Min, Max, Median
	pointSnapSize   = 3*summarySize + 8 // three summaries + MeanOps
	checksumSize    = 8
)

var cacheMagic = [4]byte{'D', 'L', 'S', 'B'}

// cachedSnapshot is the decoded snapshot section: the campaign's final
// aggregates, bit-for-bit as the producing run computed them.
type cachedSnapshot struct {
	points  []pointSnapshot
	overall metrics.Accumulator
}

type pointSnapshot struct {
	wasted, makespan, speedup metrics.Summary
	meanOps                   float64
}

// cacheEntry is a validated cache blob: envelope checked (magic/version/
// hash/grid shape/checksum), snapshot decoded, per-run records still raw
// so an aggregate-only consumer never pays for decoding them.
type cacheEntry struct {
	snap    *cachedSnapshot
	records []byte // binary per-run records
	points  int
	reps    int
}

// putU64/putF64 append little-endian values.
func putU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}
func putF64(b []byte, v float64) []byte {
	return putU64(b, math.Float64bits(v))
}

func putAccumulator(b []byte, a metrics.Accumulator) []byte {
	b = putU64(b, uint64(a.Count))
	b = putF64(b, a.Sum)
	b = putF64(b, a.MeanV)
	b = putF64(b, a.M2)
	b = putF64(b, a.MinV)
	return putF64(b, a.MaxV)
}

func putSummary(b []byte, s metrics.Summary) []byte {
	b = putU64(b, uint64(int64(s.N)))
	b = putF64(b, s.Mean)
	b = putF64(b, s.Std)
	b = putF64(b, s.Min)
	b = putF64(b, s.Max)
	return putF64(b, s.Median)
}

func getU64(b []byte) (uint64, []byte) {
	return binary.LittleEndian.Uint64(b), b[8:]
}
func getF64(b []byte) (float64, []byte) {
	v, rest := getU64(b)
	return math.Float64frombits(v), rest
}

func getAccumulator(b []byte) (metrics.Accumulator, []byte) {
	var a metrics.Accumulator
	var u uint64
	u, b = getU64(b)
	a.Count = int64(u)
	a.Sum, b = getF64(b)
	a.MeanV, b = getF64(b)
	a.M2, b = getF64(b)
	a.MinV, b = getF64(b)
	a.MaxV, b = getF64(b)
	return a, b
}

func getSummary(b []byte) (metrics.Summary, []byte) {
	var s metrics.Summary
	var u uint64
	u, b = getU64(b)
	s.N = int(int64(u))
	s.Mean, b = getF64(b)
	s.Std, b = getF64(b)
	s.Min, b = getF64(b)
	s.Max, b = getF64(b)
	s.Median, b = getF64(b)
	return s, b
}

// encodeCacheEntry renders the version-2 binary entry for a completed
// campaign: envelope, snapshot of the final aggregates, fixed-width
// per-run records, trailing checksum.
func encodeCacheEntry(key string, perRun [][]RunMetrics, res *CampaignResult) []byte {
	points := len(perRun)
	reps := 0
	if points > 0 {
		reps = len(perRun[0])
	}
	size := 16 + 2 + len(key) +
		accumulatorSize + points*pointSnapSize +
		points*reps*runRecordSize + checksumSize
	b := make([]byte, 0, size)

	b = append(b, cacheMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, cacheBinaryVersion)
	b = binary.LittleEndian.AppendUint16(b, snapFlagPresent)
	b = binary.LittleEndian.AppendUint32(b, uint32(points))
	b = binary.LittleEndian.AppendUint32(b, uint32(reps))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	b = append(b, key...)

	b = putAccumulator(b, res.Overall)
	for pi := range perRun {
		agg := res.Aggregates[pi]
		b = putSummary(b, agg.Wasted)
		b = putSummary(b, agg.Makespan)
		b = putSummary(b, agg.Speedup)
		b = putF64(b, agg.MeanOps)
	}
	for _, runs := range perRun {
		for _, m := range runs {
			b = putF64(b, m.Wasted)
			b = putF64(b, m.Makespan)
			b = putF64(b, m.Speedup)
			b = putU64(b, uint64(m.SchedOps))
		}
	}
	return putU64(b, checksum(b))
}

// checksum is FNV-1a 64 over the entry's bytes.
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// decodeCacheEntry validates a cache blob against the spec it is
// supposed to answer and returns its decoded envelope. Any mismatch —
// unknown format, version drift, stale hash, wrong grid shape,
// truncation, checksum failure — reports ok == false, demoting the hit
// to a miss (the caller then runs live and overwrites the entry).
func decodeCacheEntry(data []byte, key string, points, reps int) (cacheEntry, bool) {
	if len(data) < 18+checksumSize || [4]byte(data[:4]) != cacheMagic {
		return cacheEntry{}, false
	}
	if got := binary.LittleEndian.Uint64(data[len(data)-checksumSize:]); got != checksum(data[:len(data)-checksumSize]) {
		return cacheEntry{}, false
	}
	body := data[:len(data)-checksumSize]
	if binary.LittleEndian.Uint16(body[4:6]) != cacheBinaryVersion {
		return cacheEntry{}, false
	}
	flags := binary.LittleEndian.Uint16(body[6:8])
	if int(binary.LittleEndian.Uint32(body[8:12])) != points ||
		int(binary.LittleEndian.Uint32(body[12:16])) != reps {
		return cacheEntry{}, false
	}
	hashLen := int(binary.LittleEndian.Uint16(body[16:18]))
	rest := body[18:]
	if len(rest) < hashLen || string(rest[:hashLen]) != key {
		return cacheEntry{}, false
	}
	rest = rest[hashLen:]

	ent := cacheEntry{points: points, reps: reps}
	if flags&snapFlagPresent != 0 {
		need := accumulatorSize + points*pointSnapSize
		if len(rest) < need {
			return cacheEntry{}, false
		}
		snap := &cachedSnapshot{points: make([]pointSnapshot, points)}
		snap.overall, rest = getAccumulator(rest)
		for pi := 0; pi < points; pi++ {
			ps := &snap.points[pi]
			ps.wasted, rest = getSummary(rest)
			ps.makespan, rest = getSummary(rest)
			ps.speedup, rest = getSummary(rest)
			ps.meanOps, rest = getF64(rest)
		}
		ent.snap = snap
	}
	if len(rest) != points*reps*runRecordSize {
		return cacheEntry{}, false
	}
	ent.records = rest
	return ent, true
}

// perRunMetrics decodes the entry's per-run records into [point][rep]
// order — one flat backing array, no per-record allocation.
func (e cacheEntry) perRunMetrics() [][]RunMetrics {
	flat := make([]RunMetrics, e.points*e.reps)
	rest := e.records
	for i := range flat {
		flat[i].Wasted, rest = getF64(rest)
		flat[i].Makespan, rest = getF64(rest)
		flat[i].Speedup, rest = getF64(rest)
		var u uint64
		u, rest = getU64(rest)
		flat[i].SchedOps = int64(u)
	}
	out := make([][]RunMetrics, e.points)
	for pi := range out {
		out[pi] = flat[pi*e.reps : (pi+1)*e.reps : (pi+1)*e.reps]
	}
	return out
}

// result reconstructs the campaign result from the snapshot section:
// the stored bits are the live run's aggregates, so the rebuilt result
// is bit-identical to both the producing run and a full per-run replay.
func (s *cachedSnapshot) result(points []RunSpec) *CampaignResult {
	aggs := make([]Aggregate, len(points))
	for pi := range points {
		ps := s.points[pi]
		aggs[pi] = Aggregate{
			Spec:     points[pi],
			Wasted:   ps.wasted,
			Makespan: ps.makespan,
			Speedup:  ps.speedup,
			MeanOps:  ps.meanOps,
		}
	}
	return &CampaignResult{Aggregates: aggs, Overall: s.overall}
}
