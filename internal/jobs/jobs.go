// Package jobs is the in-process campaign job manager behind the
// dlsimd service: a bounded submission queue in front of the engine's
// context-aware execution pipeline, with per-job lifecycle states,
// streaming progress counters, and singleflight deduplication.
//
// Deduplication is keyed on the campaign spec's canonical hash
// (engine.CampaignSpec.Hash): submitting a spec whose hash matches a
// queued or running job returns that job instead of enqueuing a second
// execution, so any number of concurrent identical submissions share
// exactly one backend execution. Completed results are written to the
// manager's content-addressed store, so a later submission of the same
// spec is a fresh job that the engine serves entirely from the cache —
// zero backend runs either way.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle states. Terminal states are StateDone, StateFailed and
// StateCancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Errors reported by the manager.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity — the service's backpressure signal.
	ErrQueueFull = errors.New("jobs: submission queue full")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotDone rejects a results request for a job that has not
	// completed successfully.
	ErrNotDone = errors.New("jobs: job has not completed")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrQuotaExceeded rejects a submission when the submitting tenant
	// is at its queued-job quota — per-tenant backpressure, as opposed
	// to ErrQueueFull's whole-service backpressure.
	ErrQuotaExceeded = errors.New("jobs: tenant quota exceeded")
	// ErrDraining rejects submissions after Drain: the manager is
	// shutting down gracefully, finishing queued and running work but
	// accepting nothing new. Distinct from ErrClosed — draining jobs
	// still complete and their results remain streamable.
	ErrDraining = errors.New("jobs: draining, not accepting new submissions")
)

// Observer receives job lifecycle notifications — the hook the durable
// journal (and metrics) attach through. JobSubmitted fires once per
// new job, before any transition; JobTransition fires on every state
// change, including the terminal one. Callbacks run synchronously on
// the manager's goroutines and must not call back into the Manager.
type Observer interface {
	JobSubmitted(spec engine.CampaignSpec, snap Snapshot)
	JobTransition(snap Snapshot)
}

// MultiObserver fans lifecycle notifications out to several observers
// in order.
func MultiObserver(obs ...Observer) Observer { return multiObserver(obs) }

type multiObserver []Observer

func (m multiObserver) JobSubmitted(spec engine.CampaignSpec, snap Snapshot) {
	for _, o := range m {
		o.JobSubmitted(spec, snap)
	}
}

func (m multiObserver) JobTransition(snap Snapshot) {
	for _, o := range m {
		o.JobTransition(snap)
	}
}

// Config parameterizes a Manager.
type Config struct {
	// Store holds completed campaign results content-addressed by spec
	// hash; results streaming replays from it. Nil selects a fresh
	// in-memory store.
	Store cache.Store

	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it fail with ErrQueueFull. 0 selects 64.
	QueueDepth int

	// Concurrency is the number of campaigns executing at once. Each
	// campaign additionally fans its runs over Workers goroutines.
	// 0 selects 1 (campaigns already saturate the cores via Workers).
	Concurrency int

	// Workers bounds the per-campaign run concurrency; 0 selects
	// GOMAXPROCS (see engine.ExecConfig.Workers).
	Workers int

	// ChunkSize is the number of consecutive replications executed per
	// work item inside a campaign; 0 auto-sizes (see
	// engine.ExecConfig.ChunkSize). Never changes results.
	ChunkSize int

	// QuotaQueued bounds the jobs one tenant may have queued at once;
	// submissions beyond it fail with ErrQuotaExceeded. 0 disables the
	// quota. Joining an existing job via hash dedup never counts.
	QuotaQueued int

	// QuotaRunning bounds the jobs one tenant may have running at once:
	// a runner skips over queued jobs whose tenant is at the bound and
	// executes the next eligible one instead. 0 disables the quota.
	QuotaRunning int

	// Observer, when non-nil, receives job lifecycle notifications.
	Observer Observer
}

// Job is one submitted campaign. All exported methods are safe for
// concurrent use.
type Job struct {
	id     string
	hash   string
	tenant string
	spec   engine.CampaignSpec
	total  int64 // points × replications

	completed atomic.Int64 // runs delivered by the progress sink

	mu          sync.Mutex
	state       State
	err         error
	submissions int // submissions sharing this execution (≥ 1)
	created     time.Time
	started     time.Time
	finished    time.Time

	execCtx context.Context // execution context, derived from the manager's
	cancel  context.CancelFunc
	done    chan struct{} // closed on entering a terminal state
}

// Snapshot is a point-in-time copy of a job's externally visible state,
// shaped for JSON status endpoints.
type Snapshot struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
	// Tenant is the submitting tenant's name; empty for jobs submitted
	// without tenancy (direct Submit, auth disabled daemons).
	Tenant      string `json:"tenant,omitempty"`
	State       State  `json:"state"`
	Total       int64  `json:"total"`     // runs in the campaign grid
	Completed   int64  `json:"completed"` // runs finished so far
	Submissions int    `json:"submissions"`
	// RepOffset is the spec's replication-window offset. Non-zero only
	// for shard jobs submitted by a distributed coordinator
	// (campaign/distrib) — surfaced so an operator listing a node's jobs
	// can tell which window of a parent grid a job computes.
	RepOffset int    `json:"rep_offset,omitempty"`
	Error     string `json:"error,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Hash returns the canonical spec hash the job deduplicates on.
func (j *Job) Hash() string { return j.hash }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot copies the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:          j.id,
		Hash:        j.hash,
		Tenant:      j.tenant,
		State:       j.state,
		Total:       j.total,
		Completed:   j.completed.Load(),
		Submissions: j.submissions,
		RepOffset:   j.spec.RepOffset,
		CreatedAt:   j.created,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		s.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.FinishedAt = &t
	}
	return s
}

// progressSink feeds the job's completion counter from the campaign's
// ordered event stream — O(1) state, no buffering.
type progressSink struct {
	j    *Job
	runs *atomic.Int64 // manager-wide delivered-run counter (metrics)
}

func (s progressSink) Consume(context.Context, engine.Event) error {
	s.j.completed.Add(1)
	s.runs.Add(1)
	return nil
}

func (s progressSink) Close() error { return nil }

// Manager owns the job table, the dedup index and the bounded queue.
// The queue is a mutex-guarded FIFO (not a channel) so that cancelling
// a queued job frees its slot immediately instead of occupying channel
// capacity until a runner drains it.
type Manager struct {
	store       cache.Store
	workers     int
	chunk       int // replications per work item; 0 = auto
	depth       int // max queued (not yet running) jobs
	quotaQueued int // per-tenant queued bound; 0 = unlimited
	quotaRun    int // per-tenant running bound; 0 = unlimited
	observer    Observer

	ctx    context.Context // base context; Close cancels it
	stop   context.CancelFunc
	runner sync.WaitGroup

	runs atomic.Int64 // runs delivered across all jobs (incl. cached replays)

	mu       sync.Mutex
	ready    *sync.Cond // signaled on enqueue, quota headroom and Close
	pending  []*Job     // FIFO of queued jobs awaiting a runner
	closed   bool
	draining bool
	seq      int
	jobs     map[string]*Job            // by job ID
	order    []string                   // insertion order for List
	active   map[string]*Job            // by spec hash, queued or running only
	tenants  map[string]*tenantCounters // per-tenant quota accounting
}

// tenantCounters tracks one tenant's live jobs for quota enforcement.
type tenantCounters struct{ queued, running int }

// tenant returns (allocating if needed) the counters for name. Callers
// hold m.mu.
func (m *Manager) tenant(name string) *tenantCounters {
	c, ok := m.tenants[name]
	if !ok {
		c = &tenantCounters{}
		m.tenants[name] = c
	}
	return c
}

// notify delivers a transition snapshot to the observer, if any.
// Callers must not hold j.mu (Snapshot takes it).
func (m *Manager) notify(j *Job) {
	if m.observer != nil {
		m.observer.JobTransition(j.Snapshot())
	}
}

// NewManager starts a manager with cfg's queue depth and concurrency.
// Call Close to cancel in-flight jobs and reclaim the runner
// goroutines.
func NewManager(cfg Config) *Manager {
	if cfg.Store == nil {
		cfg.Store = cache.NewMemory()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		store:       cfg.Store,
		workers:     cfg.Workers,
		chunk:       cfg.ChunkSize,
		depth:       cfg.QueueDepth,
		quotaQueued: cfg.QuotaQueued,
		quotaRun:    cfg.QuotaRunning,
		observer:    cfg.Observer,
		ctx:         ctx,
		stop:        stop,
		jobs:        make(map[string]*Job),
		active:      make(map[string]*Job),
		tenants:     make(map[string]*tenantCounters),
	}
	m.ready = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Concurrency; i++ {
		m.runner.Add(1)
		go m.run()
	}
	return m
}

// Submit validates the spec and enqueues it as a job with no tenant
// tag. See SubmitAs.
func (m *Manager) Submit(spec engine.CampaignSpec) (job *Job, deduped bool, err error) {
	return m.SubmitAs("", spec)
}

// SubmitAs validates the spec and enqueues it as a job owned by
// tenant. If a job with the same canonical spec hash is already queued
// or running, that job is returned with deduped == true and no new
// execution happens: the submissions share one campaign (the job keeps
// its original tenant, and the join never counts against any quota). A
// full queue fails with ErrQueueFull; a tenant at its queued-job quota
// fails with ErrQuotaExceeded.
func (m *Manager) SubmitAs(tenant string, spec engine.CampaignSpec) (job *Job, deduped bool, err error) {
	// Expanding the grid both validates the spec and sizes the progress
	// denominator before anything is enqueued.
	points, err := spec.Points()
	if err != nil {
		return nil, false, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, false, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	if m.draining {
		return nil, false, ErrDraining
	}
	if j, ok := m.active[hash]; ok {
		j.mu.Lock()
		j.submissions++
		j.mu.Unlock()
		return j, true, nil
	}
	if len(m.pending) >= m.depth {
		return nil, false, ErrQueueFull
	}
	tc := m.tenant(tenant)
	if m.quotaQueued > 0 && tc.queued >= m.quotaQueued {
		return nil, false, fmt.Errorf("%w: tenant %q has %d jobs queued (max %d)",
			ErrQuotaExceeded, tenant, tc.queued, m.quotaQueued)
	}
	m.seq++
	jctx, cancel := context.WithCancel(m.ctx)
	j := &Job{
		id:          fmt.Sprintf("j%d", m.seq),
		hash:        hash,
		tenant:      tenant,
		spec:        spec,
		total:       int64(len(points)) * int64(spec.Replications),
		state:       StateQueued,
		submissions: 1,
		created:     time.Now(),
		execCtx:     jctx,
		cancel:      cancel,
		done:        make(chan struct{}),
	}
	m.pending = append(m.pending, j)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.active[hash] = j
	tc.queued++
	if m.observer != nil {
		// Under m.mu: the job cannot be claimed by a runner (claiming
		// needs the lock), so the submit notification always precedes
		// the job's first transition.
		m.observer.JobSubmitted(spec, j.Snapshot())
	}
	m.ready.Signal()
	return j, false, nil
}

// Restore re-inserts a journaled job without notifying the observer —
// the crash-recovery replay path. A terminal snapshot is restored
// as-is (results re-materialize from the content-addressed store on
// demand); a queued or running snapshot is re-enqueued from scratch
// and executes again, which for cached specs costs zero backend runs.
// The job keeps its original ID, tenant and creation time, and the
// manager's ID sequence is advanced past it.
func (m *Manager) Restore(spec engine.CampaignSpec, snap Snapshot) (*Job, error) {
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	if snap.ID == "" {
		return nil, fmt.Errorf("jobs: restore: snapshot without id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if _, ok := m.jobs[snap.ID]; ok {
		return nil, fmt.Errorf("jobs: restore: job %q already exists", snap.ID)
	}
	var n int
	if _, err := fmt.Sscanf(snap.ID, "j%d", &n); err == nil && n > m.seq {
		m.seq = n
	}
	jctx, cancel := context.WithCancel(m.ctx)
	j := &Job{
		id:          snap.ID,
		hash:        hash,
		tenant:      snap.Tenant,
		spec:        spec,
		total:       int64(len(points)) * int64(spec.Replications),
		submissions: 1,
		created:     snap.CreatedAt,
		execCtx:     jctx,
		cancel:      cancel,
		done:        make(chan struct{}),
	}
	if j.created.IsZero() {
		j.created = time.Now()
	}
	if snap.State.Terminal() {
		j.state = snap.State
		j.completed.Store(snap.Completed)
		if snap.Error != "" {
			j.err = errors.New(snap.Error)
		}
		if snap.StartedAt != nil {
			j.started = *snap.StartedAt
		}
		if snap.FinishedAt != nil {
			j.finished = *snap.FinishedAt
		}
		close(j.done)
		cancel()
	} else {
		j.state = StateQueued
		m.pending = append(m.pending, j)
		if _, ok := m.active[hash]; !ok {
			m.active[hash] = j
		}
		m.tenant(j.tenant).queued++
		m.ready.Signal()
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return j, nil
}

// Stats is a point-in-time census of the manager's jobs, shaped for
// the /metrics endpoint.
type Stats struct {
	Queued, Running, Done, Failed, Cancelled int
	// RunsDelivered counts runs delivered to job progress across all
	// jobs, including cached replays.
	RunsDelivered int64
}

// Stats counts jobs by state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	s := Stats{RunsDelivered: m.runs.Load()}
	for _, j := range jobs {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		switch st {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCancelled:
			s.Cancelled++
		}
	}
	return s
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// List snapshots every job in submission order.
func (m *Manager) List() []Snapshot {
	out, _, _ := m.ListPage("", 0)
	return out
}

// ListPage snapshots jobs in submission order, starting after the job
// with ID after ("" starts at the beginning) and returning at most limit
// jobs (0 means no bound). When jobs remain beyond the returned page,
// next is the last returned job's ID — pass it as the next call's after
// to continue; next is "" on the final page. An unknown after fails with
// ErrNotFound, so a paginating client can distinguish "end of list" from
// "bad cursor".
func (m *Manager) ListPage(after string, limit int) (page []Snapshot, next string, err error) {
	m.mu.Lock()
	start := 0
	if after != "" {
		if _, ok := m.jobs[after]; !ok {
			m.mu.Unlock()
			return nil, "", fmt.Errorf("%w: cursor %q", ErrNotFound, after)
		}
		for i, id := range m.order {
			if id == after {
				start = i + 1
				break
			}
		}
	}
	ids := m.order[start:]
	more := false
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
		more = true
	}
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	page = make([]Snapshot, len(jobs))
	for i, j := range jobs {
		page[i] = j.Snapshot()
	}
	if more {
		next = page[len(page)-1].ID
	}
	return page, next, nil
}

// Cancel transitions the job out of the queue (if still queued) or
// cancels its execution context (if running). Either way the job's
// hash leaves the dedup index immediately, so a subsequent identical
// submission starts fresh instead of joining a doomed job. Cancelling
// a terminal job is a no-op. Running jobs reach StateCancelled
// asynchronously — wait on Done for the terminal state.
func (m *Manager) Cancel(id string) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.err = context.Canceled
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		j.cancel()
		m.retire(j)
		m.dequeue(j) // free the queue slot for new submissions
		m.notify(j)
		return nil
	case StateRunning:
		j.mu.Unlock()
		m.retire(j)
		j.cancel() // runner observes the cancellation and finalizes
		return nil
	default:
		j.mu.Unlock()
		return nil
	}
}

// dequeue removes a (cancelled) job from the pending FIFO, if present,
// releasing its tenant's queued-quota slot. A job absent from the FIFO
// was already claimed by a runner, which released the slot itself.
func (m *Manager) dequeue(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range m.pending {
		if p == j {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			m.tenant(j.tenant).queued--
			m.ready.Broadcast() // a quota slot freed; re-scan the FIFO
			return
		}
	}
}

// Wait blocks until the job reaches a terminal state or ctx is
// cancelled, returning the job's final snapshot.
func (m *Manager) Wait(ctx context.Context, id string) (Snapshot, error) {
	j, err := m.Get(id)
	if err != nil {
		return Snapshot{}, err
	}
	select {
	case <-j.done:
		return j.Snapshot(), nil
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
}

// Results streams the completed job's per-run events into the given
// sinks in deterministic (point, replication) order by replaying the
// cached campaign through the engine — zero backend runs on the replay
// path. Concurrent Results calls are independent: every caller gets the
// identical byte stream. The job must be in StateDone.
func (m *Manager) Results(ctx context.Context, id string, sinks ...engine.Sink) error {
	j, err := m.Get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state != StateDone {
		return fmt.Errorf("%w: %s is %s", ErrNotDone, id, state)
	}
	// The entry was written when the job completed; Execute replays it.
	// If the store lost it (e.g. an evicting implementation), the engine
	// transparently re-runs the campaign — determinism makes the bytes
	// identical either way.
	_, err = j.spec.Execute(ctx, engine.ExecConfig{
		Workers:   m.workers,
		ChunkSize: m.chunk,
		Cache:     m.store,
		Sinks:     sinks,
	})
	return err
}

// Drain flips the manager into graceful-shutdown mode: new submissions
// fail with ErrDraining while queued and running jobs keep executing to
// completion. Status, wait and result streaming stay fully available,
// so clients of in-flight work are never cut off. Irreversible; safe to
// call more than once.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// WaitIdle blocks until no job is queued or running (or ctx is done) —
// the "running jobs finish" half of a drain. It does not prevent new
// submissions; call Drain first so the job population only shrinks.
func (m *Manager) WaitIdle(ctx context.Context) error {
	for {
		var live *Job
		m.mu.Lock()
		for _, j := range m.jobs {
			j.mu.Lock()
			terminal := j.state.Terminal()
			j.mu.Unlock()
			if !terminal {
				live = j
				break
			}
		}
		m.mu.Unlock()
		if live == nil {
			return nil
		}
		select {
		case <-live.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Close stops accepting submissions, cancels queued and running jobs,
// and waits for the runners to drain. Safe to call more than once.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.runner.Wait()
		return
	}
	m.closed = true
	m.ready.Broadcast() // wake runners blocked on an empty queue
	m.mu.Unlock()
	m.stop() // cancels every job context derived from m.ctx
	m.runner.Wait()
	// Finalize jobs still queued at shutdown so waiters unblock.
	m.mu.Lock()
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, j := range pending {
		j.mu.Lock()
		finalized := false
		if j.state == StateQueued {
			j.state = StateCancelled
			j.err = context.Canceled
			j.finished = time.Now()
			close(j.done)
			finalized = true
		}
		j.mu.Unlock()
		if finalized {
			m.notify(j)
		}
	}
}

// retire removes a job from the dedup index once it can no longer be
// joined (terminal or about to be).
func (m *Manager) retire(j *Job) {
	m.mu.Lock()
	if m.active[j.hash] == j {
		delete(m.active, j.hash)
	}
	m.mu.Unlock()
}

// claimableLocked returns the index of the first pending job whose
// tenant has running-quota headroom, or -1. Callers hold m.mu.
func (m *Manager) claimableLocked() int {
	for i, j := range m.pending {
		if m.quotaRun <= 0 || m.tenant(j.tenant).running < m.quotaRun {
			return i
		}
	}
	return -1
}

// run is one runner goroutine: it claims eligible jobs off the pending
// FIFO and executes them, sleeping on the condition variable while no
// job is claimable (empty queue, or every queued tenant at its running
// quota). Close broadcasts after setting closed, so runners never
// sleep through shutdown.
func (m *Manager) run() {
	defer m.runner.Done()
	for {
		m.mu.Lock()
		var j *Job
		for j == nil {
			if m.closed {
				m.mu.Unlock()
				return
			}
			idx := m.claimableLocked()
			if idx < 0 {
				m.ready.Wait()
				continue
			}
			cand := m.pending[idx]
			m.pending = append(m.pending[:idx], m.pending[idx+1:]...)
			tc := m.tenant(cand.tenant)
			tc.queued--
			cand.mu.Lock()
			if cand.state != StateQueued {
				// Cancelled between leaving StateQueued and its removal
				// from the FIFO; its slot is already freed.
				cand.mu.Unlock()
				continue
			}
			cand.state = StateRunning
			cand.started = time.Now()
			cand.mu.Unlock()
			tc.running++
			j = cand
		}
		m.mu.Unlock()

		m.notify(j)
		m.runJob(j)

		m.mu.Lock()
		m.tenant(j.tenant).running--
		// Quota headroom may unblock a runner waiting on another job.
		m.ready.Broadcast()
		m.mu.Unlock()
	}
}

// runJob executes one already-claimed (StateRunning) job through the
// engine and finalizes its state.
func (m *Manager) runJob(j *Job) {
	_, err := j.spec.Execute(j.execCtx, engine.ExecConfig{
		Workers:   m.workers,
		ChunkSize: m.chunk,
		Cache:     m.store,
		Sinks:     []engine.Sink{progressSink{j, &m.runs}},
	})

	m.retire(j)
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	close(j.done)
	j.mu.Unlock()
	j.cancel() // release the context's resources
	m.notify(j)
}
