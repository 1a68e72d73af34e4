package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/workload"
)

func testSpec(seed uint64) engine.CampaignSpec {
	return engine.CampaignSpec{
		Backend:      "sim",
		Techniques:   []string{"FAC2"},
		Ns:           []int64{128},
		Ps:           []int{2},
		Workload:     workload.Spec{Kind: "exponential", P1: 1},
		H:            0.5,
		Replications: 4,
		Seed:         seed,
	}
}

func jobRecord(id string, seed uint64, at time.Time) Record {
	spec := testSpec(seed)
	hash, _ := spec.Hash()
	return Record{Kind: KindJob, Time: at, ID: id, Tenant: "t1", Hash: hash, Spec: &spec}
}

// legacyLine frames a retired schedule record the way journals written
// before schedules were retired did: the Record payload plus the
// interval and jitter fields Record no longer has.
func legacyLine(tb testing.TB, rec Record, interval, jitter time.Duration) []byte {
	tb.Helper()
	payload, err := json.Marshal(struct {
		Record
		Interval time.Duration `json:"interval,omitempty"`
		Jitter   time.Duration `json:"jitter,omitempty"`
	}{rec, interval, jitter})
	if err != nil {
		tb.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(payload)
	return append(fmt.Appendf(nil, "%016x %s", h.Sum64(), payload), '\n')
}

// foldedStates renders Fold's views as "id:state" for comparison.
func foldedStates(recs []Record) []string {
	var out []string
	for _, v := range Fold(recs) {
		out = append(out, v.ID+":"+v.State)
	}
	return out
}

func mustAppend(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendReplayRoundTrip pins the basic durability contract: every
// appended record comes back, in order, from a fresh Open of the same
// directory.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	want := []Record{
		jobRecord("j1", 1, t0),
		{Kind: KindState, Time: t0.Add(time.Second), ID: "j1", State: "running"},
		{Kind: KindState, Time: t0.Add(2 * time.Second), ID: "j1", State: "done"},
		jobRecord("j2", 2, t0.Add(3*time.Second)),
		{Kind: KindState, Time: t0.Add(4 * time.Second), ID: "j2", State: "failed", Error: "boom"},
	}
	mustAppend(t, j, want...)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].ID != want[i].ID ||
			got[i].State != want[i].State || got[i].Error != want[i].Error ||
			!got[i].Time.Equal(want[i].Time) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	jobs := Fold(got)
	if len(jobs) != 2 {
		t.Fatalf("folded %d jobs, want 2", len(jobs))
	}
	if jobs[0].State != "done" || !jobs[0].Terminal() {
		t.Errorf("j1 folded to %q", jobs[0].State)
	}
	if jobs[1].State != "failed" || jobs[1].Error != "boom" {
		t.Errorf("j2 folded to %q/%q", jobs[1].State, jobs[1].Error)
	}
}

// TestTornTailTruncated simulates a crash mid-append: a partial final
// line is discarded on Open, the good prefix replays, and subsequent
// appends produce a well-formed file.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now().UTC()
	mustAppend(t, j, jobRecord("j1", 1, t0), jobRecord("j2", 2, t0))
	j.Close()

	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-way through the last line (no terminator).
	torn := data[:len(data)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "j1" {
		t.Fatalf("replay after torn tail = %+v, want just j1", recs)
	}
	mustAppend(t, j2, jobRecord("j3", 3, t0))
	j2.Close()

	_, recs, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "j1" || recs[1].ID != "j3" {
		t.Fatalf("replay after heal = %+v, want [j1 j3]", recs)
	}
}

// TestCorruptionStopsReplay flips one byte in every position of a
// journaled line in turn and asserts replay never yields a record from
// the damaged line or past it — mirroring the cache codec's
// tamper-rejection discipline.
func TestCorruptionStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now().UTC()
	mustAppend(t, j,
		jobRecord("j1", 1, t0),
		Record{Kind: KindState, Time: t0, ID: "j1", State: "done"},
		jobRecord("j2", 2, t0),
	)
	j.Close()
	path := filepath.Join(dir, FileName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLineEnd := bytes.IndexByte(pristine, '\n') + 1

	for off := 0; off < firstLineEnd-1; off++ {
		data := append([]byte(nil), pristine...)
		data[off] ^= 0x40
		if bytes.Equal(data, pristine) {
			continue
		}
		recs, _ := decodeAll(data)
		if len(recs) != 0 {
			// Flips inside the first line must kill it and stop replay.
			t.Fatalf("flip at %d: replayed %d records from a damaged head", off, len(recs))
		}
	}

	// Damage in the middle line keeps the first record only.
	secondLineEnd := firstLineEnd + bytes.IndexByte(pristine[firstLineEnd:], '\n') + 1
	data := append([]byte(nil), pristine...)
	data[firstLineEnd+20] ^= 0x01
	recs, good := decodeAll(data)
	if len(recs) != 1 || recs[0].ID != "j1" {
		t.Fatalf("mid-file damage: replayed %+v, want just j1's job record", recs)
	}
	if good != firstLineEnd {
		t.Fatalf("good offset %d, want %d", good, firstLineEnd)
	}
	_ = secondLineEnd
}

// TestCompactKeepsLiveAndRecentTerminal pins the compaction policy:
// live jobs always survive, terminal jobs beyond the keep window and
// retired schedule records are dropped, and the compacted file folds
// identically.
func TestCompactKeepsLiveAndRecentTerminal(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	// Five terminal jobs finishing in order, one live (running) job,
	// and retired schedule records from before schedules were removed.
	for i := 0; i < 5; i++ {
		id := string(rune('a' + i))
		mustAppend(t, j,
			jobRecord("jt-"+id, uint64(i+1), t0.Add(time.Duration(i)*time.Minute)),
			Record{Kind: KindState, Time: t0.Add(time.Duration(i)*time.Minute + 30*time.Second), ID: "jt-" + id, State: "done"},
		)
	}
	mustAppend(t, j,
		jobRecord("jlive", 99, t0.Add(time.Hour)),
		Record{Kind: KindState, Time: t0.Add(time.Hour), ID: "jlive", State: "running"},
	)
	spec := testSpec(7)
	mustAppend(t, j,
		Record{Kind: KindSchedule, Time: t0, ID: "s1", Tenant: "t1", Spec: &spec},
		Record{Kind: KindSchedule, Time: t0, ID: "s2", Tenant: "t1", Spec: &spec},
		Record{Kind: KindScheduleDelete, Time: t0, ID: "s2"},
	)

	if err := j.Compact(2); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind == KindSchedule || r.Kind == KindScheduleDelete {
			t.Fatalf("compaction kept retired record %+v", r)
		}
	}
	jobs := Fold(recs)
	var ids []string
	for _, v := range jobs {
		ids = append(ids, v.ID+":"+v.State)
	}
	want := []string{"jt-d:done", "jt-e:done", "jlive:running"}
	if len(ids) != len(want) {
		t.Fatalf("compacted jobs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("compacted jobs = %v, want %v", ids, want)
		}
	}
	// Spec survives compaction intact (hash-identical).
	wantHash, _ := testSpec(99).Hash()
	if jobs[2].Hash != wantHash {
		t.Errorf("live job hash %q, want %q", jobs[2].Hash, wantHash)
	}
	gotHash, err := jobs[2].Spec.Hash()
	if err != nil || gotHash != wantHash {
		t.Errorf("live job spec re-hash %q (%v), want %q", gotHash, err, wantHash)
	}
}

// TestScheduleFold pins the upgrade path for journals that still hold
// retired schedule records interleaved with job records: Open replays
// every line without truncating the file at the first schedule line,
// Fold sees every job and ignores the schedules, and Compact drops the
// retired lines for good.
func TestScheduleFold(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	spec := testSpec(7)
	hash, _ := spec.Hash()
	encode := func(rec Record) []byte {
		line, err := encodeLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	lines := [][]byte{
		encode(jobRecord("j1", 1, t0)),
		legacyLine(t, Record{Kind: KindSchedule, Time: t0, ID: "s1", Tenant: "a", Hash: hash, Spec: &spec}, 5*time.Second, time.Second),
		encode(Record{Kind: KindState, Time: t0.Add(time.Second), ID: "j1", State: "running"}),
		encode(jobRecord("j2", 2, t0.Add(2*time.Second))),
		legacyLine(t, Record{Kind: KindSchedule, Time: t0, ID: "s2", Tenant: "b", Hash: hash, Spec: &spec}, time.Minute, 0),
		encode(Record{Kind: KindState, Time: t0.Add(3 * time.Second), ID: "j1", State: "done"}),
		legacyLine(t, Record{Kind: KindScheduleDelete, Time: t0, ID: "s1"}, 0, 0),
		encode(jobRecord("j3", 3, t0.Add(4*time.Second))),
		encode(Record{Kind: KindState, Time: t0.Add(5 * time.Second), ID: "j2", State: "failed", Error: "boom"}),
	}
	path := filepath.Join(dir, FileName)
	file := bytes.Join(lines, nil)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	j, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recs) != len(lines) {
		t.Fatalf("replayed %d records, want all %d lines", len(recs), len(lines))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(file)) {
		t.Fatalf("Open truncated the journal: %v bytes (%v), want %d", fi.Size(), err, len(file))
	}
	want := []string{"j1:done", "j2:failed", "j3:queued"}
	if got := foldedStates(recs); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("folded jobs = %v, want %v", got, want)
	}

	if err := j.Compact(10); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"schedule`)) {
		t.Fatalf("compacted journal still holds retired records:\n%s", data)
	}
	compacted, good := decodeAll(data)
	if good != len(data) {
		t.Fatalf("compacted journal decodes to offset %d of %d", good, len(data))
	}
	if got := foldedStates(compacted); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("compacted jobs = %v, want %v", got, want)
	}
}

// TestRejectsMalformedRecords pins validation of the line decoder.
func TestRejectsMalformedRecords(t *testing.T) {
	for _, line := range []string{
		"",
		"short",
		"00000000000000000000", // no space at offset 16
		"zzzzzzzzzzzzzzzz {\"kind\":\"job\",\"id\":\"x\"}",
		"0000000000000000 {\"kind\":\"job\",\"id\":\"x\"}",  // wrong checksum
		"af63bd4c8601b7df {\"kind\":\"nope\",\"id\":\"x\"}", // unknown kind (checksum also wrong)
	} {
		if _, err := DecodeLine([]byte(line)); err == nil {
			t.Errorf("DecodeLine(%q) accepted malformed input", line)
		}
	}
	// A well-formed line with an unknown kind: re-frame correctly.
	rec := Record{Kind: "mystery", ID: "x"}
	if line, err := encodeLine(rec); err == nil {
		if _, err := DecodeLine(line[:len(line)-1]); err == nil {
			t.Error("DecodeLine accepted unknown record kind")
		}
	}
	// And one without an ID.
	if line, err := encodeLine(Record{Kind: KindJob}); err == nil {
		if _, err := DecodeLine(line[:len(line)-1]); err == nil {
			t.Error("DecodeLine accepted record without id")
		}
	}
}

// TestAutoCompact pins that crossing the record threshold triggers an
// automatic rewrite instead of unbounded growth.
func TestAutoCompact(t *testing.T) {
	oldAt, oldKeep := autoCompactAt, autoCompactKeep
	autoCompactAt, autoCompactKeep = 40, 4
	defer func() { autoCompactAt, autoCompactKeep = oldAt, oldKeep }()

	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	t0 := time.Now().UTC()
	// Enough terminal jobs to cross autoCompactAt (2 records per job).
	for i := 0; i <= autoCompactAt; i++ {
		id := "j" + time.Duration(i).String()
		mustAppend(t, j,
			jobRecord(id, uint64(i), t0.Add(time.Duration(i))),
			Record{Kind: KindState, Time: t0.Add(time.Duration(i)), ID: id, State: "done"},
		)
	}
	if n := len(j.Records()); n >= autoCompactAt {
		t.Fatalf("journal grew to %d records; auto-compaction never ran", n)
	}
	// The kept window folds to the most recent terminal jobs only.
	jobs := Fold(j.Records())
	if len(jobs) > autoCompactAt {
		t.Fatalf("folded %d jobs after auto-compaction", len(jobs))
	}
}
