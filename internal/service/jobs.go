package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vccmin/internal/engine"
	"vccmin/internal/sweep"
)

// The async job subsystem. A job is one sweep.Spec execution; its identity
// is the spec's canonical hash, so enqueueing an identical spec twice
// yields the same job — the second POST is a cache hit that costs nothing.
// Execution runs on the engine package's bounded worker Pool (the pool
// this manager used to implement itself, folded into the engine layer).
//
// Jobs survive restarts through two files per job in the data directory:
//
//	<id>.spec.json   the spec, written before the job is first queued
//	<id>.rows.jsonl  the row checkpoint, appended in cell order
//	<id>.done.json   the final snapshot, written only on success
//
// A manager starting over an existing directory re-registers finished
// jobs from their done markers and re-enqueues unfinished ones; the sweep
// engine's ResumeFile path then skips every cell already in the row
// checkpoint, so a kill mid-sweep costs at most one torn line.

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle: queued → running → done | failed. A job interrupted by
// shutdown returns to queued (its checkpoint keeps it resumable).
const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// JobSnapshot is a point-in-time public view of a job.
type JobSnapshot struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`

	// Resumed reports that the job recovered a prior checkpoint (after a
	// restart or a duplicate enqueue of an interrupted job).
	Resumed bool `json:"resumed,omitempty"`

	TotalCells int `json:"total_cells"`
	ShardCells int `json:"shard_cells"`
	Computed   int `json:"computed"`
	Skipped    int `json:"skipped"` // cells recovered from the checkpoint, not recomputed

	// TornBytes counts checkpoint bytes dropped on resume (a final line
	// torn by a kill mid-write); almost always zero.
	TornBytes int64 `json:"torn_bytes,omitempty"`

	Error string `json:"error,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

type job struct {
	id   string
	spec sweep.Spec

	mu   sync.Mutex
	snap JobSnapshot
}

func (j *job) snapshot() JobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap
}

func (j *job) update(f func(*JobSnapshot)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	f(&j.snap)
}

// Manager owns the job table and the on-disk checkpoints; execution
// runs on the batch tier of the engine's two-tier worker pool, and the
// hub broadcasts per-job progress to the streaming endpoint's
// subscribers.
type Manager struct {
	dir  string
	pool *engine.Pool
	hub  *hub
	now  func() time.Time

	mu   sync.RWMutex
	jobs map[string]*job

	dedupHits atomic.Uint64
}

// interactiveBacklog bounds the synchronous endpoints' queued compute;
// submissions beyond it are shed with 503.
const interactiveBacklog = 256

// NewManagerTiered starts the job manager over the data directory,
// creating it if needed, re-registering finished jobs and re-enqueueing
// unfinished ones found there. Its pool has two tiers: batchWorkers
// dual workers run sweep jobs (and may serve interactive work when
// idle), while interactiveWorkers additional workers are reserved for
// the interactive tier the service's synchronous endpoints submit to —
// so saturating the sweep queue can never starve a sync request.
func NewManagerTiered(dir string, batchWorkers, interactiveWorkers int) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: job manager needs a data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	specs, err := filepath.Glob(filepath.Join(dir, "*.spec.json"))
	if err != nil {
		return nil, err
	}
	m := &Manager{
		dir: dir,
		// The batch backlog holds every recovered job plus fresh headroom,
		// so recovery can never block on a full queue.
		pool: engine.NewTieredPool(interactiveWorkers, batchWorkers, interactiveBacklog, len(specs)+1024),
		hub:  newHub(),
		now:  time.Now,
		jobs: make(map[string]*job),
	}
	if err := m.recover(specs); err != nil {
		m.pool.Close()
		return nil, err
	}
	return m, nil
}

// Pool exposes the manager's two-tier worker pool; the service submits
// its synchronous compute on the interactive tier.
func (m *Manager) Pool() *engine.Pool { return m.pool }

// BatchBacklog returns the number of queued (not yet running) batch
// items — the admission watermark's input.
func (m *Manager) BatchBacklog() int64 { return m.pool.QueuedTier(engine.TierBatch) }

// recover walks the spec files found in the data directory: jobs with a
// done or failed marker are re-registered in that terminal state, the
// rest are re-enqueued as resumed jobs.
func (m *Manager) recover(specs []string) error {
	for _, path := range specs {
		id := strings.TrimSuffix(filepath.Base(path), ".spec.json")
		var spec sweep.Spec
		if err := readJSONFile(path, &spec); err != nil {
			return fmt.Errorf("service: recovering job %s: %w", id, err)
		}
		j := &job{id: id, spec: spec}
		terminal := false
		for _, marker := range []string{m.donePath(id), m.failedPath(id)} {
			var snap JobSnapshot
			err := readJSONFile(marker, &snap)
			if err == nil {
				j.snap = snap
				terminal = true
				break
			}
			if !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("service: recovering job %s: %w", id, err)
			}
		}
		if terminal {
			m.jobs[id] = j
			continue
		}
		j.snap = JobSnapshot{ID: id, Status: JobQueued, Resumed: true, CreatedAt: m.now().UTC()}
		m.jobs[id] = j
		if err := m.pool.SubmitTier(engine.TierBatch, func(ctx context.Context) { m.run(ctx, j) }); err != nil {
			return fmt.Errorf("service: recovering job %s: %w", id, err)
		}
	}
	return nil
}

// Enqueue registers the spec for execution and returns its job. If an
// identical spec (same canonical hash) is already known — queued, running
// or finished — that job is returned with cached=true and nothing new is
// scheduled: deterministic seeds make every sweep result reusable.
func (m *Manager) Enqueue(spec sweep.Spec) (JobSnapshot, bool, error) {
	id := spec.CanonicalHash()

	m.mu.Lock()
	if j, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		m.dedupHits.Add(1)
		return j.snapshot(), true, nil
	}
	if m.pool.Draining() {
		m.mu.Unlock()
		return JobSnapshot{}, false, errDraining
	}
	j := &job{id: id, spec: spec}
	j.snap = JobSnapshot{ID: id, Status: JobQueued, CreatedAt: m.now().UTC()}
	m.jobs[id] = j
	m.mu.Unlock()

	if err := writeJSONFile(m.specPath(id), spec); err != nil {
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		return JobSnapshot{}, false, err
	}
	if err := m.pool.SubmitTier(engine.TierBatch, func(ctx context.Context) { m.run(ctx, j) }); err != nil {
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		os.Remove(m.specPath(id))
		switch {
		case errors.Is(err, engine.ErrPoolDraining):
			return JobSnapshot{}, false, errDraining
		case errors.Is(err, engine.ErrPoolFull):
			return JobSnapshot{}, false, errQueueFull
		}
		return JobSnapshot{}, false, err
	}
	return j.snapshot(), false, nil
}

var (
	errDraining  = errors.New("service: shutting down, not accepting jobs")
	errQueueFull = errors.New("service: job queue full")
)

// Get returns the job's current snapshot.
func (m *Manager) Get(id string) (JobSnapshot, bool) {
	m.mu.RLock()
	j, ok := m.jobs[id]
	m.mu.RUnlock()
	if !ok {
		return JobSnapshot{}, false
	}
	return j.snapshot(), true
}

// List returns a snapshot of every known job, newest first.
func (m *Manager) List() []JobSnapshot {
	m.mu.RLock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.RUnlock()
	out := make([]JobSnapshot, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].CreatedAt.After(out[k-1].CreatedAt); k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// RowsPath returns the job's JSONL checkpoint file path.
func (m *Manager) RowsPath(id string) string { return filepath.Join(m.dir, id+".rows.jsonl") }

func (m *Manager) specPath(id string) string   { return filepath.Join(m.dir, id+".spec.json") }
func (m *Manager) donePath(id string) string   { return filepath.Join(m.dir, id+".done.json") }
func (m *Manager) failedPath(id string) string { return filepath.Join(m.dir, id+".failed.json") }

// run executes one job through the checkpointed resume path, so an
// interrupted execution is recoverable cell-for-cell. ctx is the worker
// pool's context; Close cancels it. Every flushed row and every status
// change notifies the hub, waking the job's stream subscribers.
func (m *Manager) run(ctx context.Context, j *job) {
	started := m.now().UTC()
	j.update(func(s *JobSnapshot) {
		s.Status = JobRunning
		s.StartedAt = &started
	})
	m.hub.notify(j.id)
	res, err := sweep.ResumeFile(j.spec, m.RowsPath(j.id), sweep.RunOptions{
		Context: ctx,
		OnProgress: func(p sweep.Progress) {
			j.update(func(s *JobSnapshot) {
				s.TotalCells = p.TotalCells
				s.ShardCells = p.ShardCells
				s.Skipped = p.Skipped
				s.Computed = p.Flushed
			})
			m.hub.notify(j.id)
		},
	})
	finished := m.now().UTC()
	switch {
	case err == nil:
		j.update(func(s *JobSnapshot) {
			s.Status = JobDone
			s.TotalCells = res.TotalCells
			s.ShardCells = res.ShardCells
			s.Computed = res.Computed
			s.Skipped = res.Skipped
			s.Resumed = s.Resumed || res.Skipped > 0
			s.TornBytes = res.ResumeTornBytes
			s.FinishedAt = &finished
		})
		if werr := writeJSONFile(m.donePath(j.id), j.snapshot()); werr != nil {
			// The job finished; a missing marker only costs a re-resume
			// (all cells skipped) after the next restart.
			j.update(func(s *JobSnapshot) { s.Error = "done marker: " + werr.Error() })
		}
	case errors.Is(err, context.Canceled):
		// Shutdown, not failure: the checkpoint keeps the job resumable
		// and the next manager over this directory re-enqueues it.
		j.update(func(s *JobSnapshot) { s.Status = JobQueued })
	default:
		j.update(func(s *JobSnapshot) {
			s.Status = JobFailed
			s.Error = err.Error()
			s.FinishedAt = &finished
		})
		// Persist the failure so a restart re-registers it instead of
		// silently resurrecting the job and re-running a deterministic
		// failure after every start.
		if werr := writeJSONFile(m.failedPath(j.id), j.snapshot()); werr != nil {
			j.update(func(s *JobSnapshot) { s.Error += "; failed marker: " + werr.Error() })
		}
	}
	// The final wake-up: subscribers re-read the snapshot, drain the
	// checkpoint's tail and close their streams on the terminal states.
	m.hub.notify(j.id)
}

// Drain stops accepting new jobs and waits for the queue to empty and the
// running jobs to finish, or for ctx to expire — the graceful half of
// shutdown. Call Close afterwards either way.
func (m *Manager) Drain(ctx context.Context) error { return m.pool.Drain(ctx) }

// Close cancels any still-running jobs (their checkpoints keep them
// resumable) and waits for the workers to exit.
func (m *Manager) Close() { m.pool.Close() }

// JobStats is the jobs section of the /v1/stats response.
type JobStats struct {
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	DedupHits uint64 `json:"dedup_hits"`
}

func (m *Manager) stats() JobStats {
	st := JobStats{DedupHits: m.dedupHits.Load()}
	for _, s := range m.List() {
		switch s.Status {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		case JobDone:
			st.Done++
		case JobFailed:
			st.Failed++
		}
	}
	return st
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// writeJSONFile writes atomically (temp file + rename) so a kill mid-write
// never leaves a half-written spec or done marker.
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
