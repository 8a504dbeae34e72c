package telemetry

import (
	"math"
	"sync"
	"time"

	"rahtm/internal/obs"
)

// Progress is a point-in-time view of a running pipeline, JSON-encodable
// as-is; the live endpoint serves it next to the metrics snapshot.
type Progress struct {
	// Phase is the pipeline phase currently running ("" before the first
	// PhaseStart; the last completed phase keeps the name with Done set).
	Phase string `json:"phase"`
	// PhaseDone reports that Phase has completed and the next one has not
	// started yet.
	PhaseDone bool `json:"phase_done,omitempty"`
	// MapJobsPlanned / MapJobsDone count Phase 2 scheduler jobs
	// (representative subproblem solves after sibling grouping).
	MapJobsPlanned int `json:"map_jobs_planned"`
	MapJobsDone    int `json:"map_jobs_done"`
	// MergeJobsPlanned / MergeJobsDone count Phase 3 scheduler jobs.
	MergeJobsPlanned int `json:"merge_jobs_planned"`
	MergeJobsDone    int `json:"merge_jobs_done"`
	// Subproblems counts committed Phase 2 results including sibling-reuse
	// copies — the done/total a user compares against PhaseStats.
	Subproblems int `json:"subproblems"`
	// BestMCL is the best maximum channel load reported so far at the
	// shallowest hierarchy level reached; BestLevel is that level (-1 until
	// the first beam round reports, in which case BestMCL is 0).
	BestMCL   float64 `json:"best_mcl"`
	BestLevel int     `json:"best_level"`
}

// ProgressTracker derives a live Progress view from pipeline observer
// events. It implements obs.Observer and is safe for concurrent use —
// attach it to the solve context via obs.Tee and poll Snapshot from the
// serving goroutine.
type ProgressTracker struct {
	obs.Nop
	mu sync.Mutex
	p  Progress
}

// NewProgressTracker returns a tracker with no progress yet.
func NewProgressTracker() *ProgressTracker {
	return &ProgressTracker{p: Progress{BestLevel: -1}}
}

// Snapshot returns the current progress view.
func (t *ProgressTracker) Snapshot() Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.p
}

// PhaseStart implements obs.Observer.
func (t *ProgressTracker) PhaseStart(phase string) {
	t.mu.Lock()
	t.p.Phase = phase
	t.p.PhaseDone = false
	t.mu.Unlock()
}

// PhaseEnd implements obs.Observer.
func (t *ProgressTracker) PhaseEnd(phase string, elapsed time.Duration) {
	t.mu.Lock()
	if t.p.Phase == phase {
		t.p.PhaseDone = true
	}
	t.mu.Unlock()
}

// SubproblemSolved implements obs.Observer: counts committed Phase 2
// results, sibling-reuse copies included.
func (t *ProgressTracker) SubproblemSolved(level int, method string, mcl float64, cached bool) {
	t.mu.Lock()
	t.p.Subproblems++
	t.mu.Unlock()
}

// BeamRound implements obs.Observer: the shallowest level's best MCL is the
// pipeline's best-so-far (level 0 is the root merge).
func (t *ProgressTracker) BeamRound(level, step, candidates int, bestMCL float64) {
	if math.IsNaN(bestMCL) || math.IsInf(bestMCL, 0) {
		return
	}
	t.mu.Lock()
	if t.p.BestLevel < 0 || level <= t.p.BestLevel {
		t.p.BestLevel = level
		t.p.BestMCL = bestMCL
	}
	t.mu.Unlock()
}

// JobsPlanned implements obs.Observer.
func (t *ProgressTracker) JobsPlanned(phase string, n int) {
	t.mu.Lock()
	switch phase {
	case obs.PhaseMap:
		t.p.MapJobsPlanned += n
	case obs.PhaseMerge:
		t.p.MergeJobsPlanned += n
	}
	t.mu.Unlock()
}

// Span implements obs.Observer: completed solve/merge scheduler jobs
// advance the done counters.
func (t *ProgressTracker) Span(name, phase string, worker, level int, hash uint64, start time.Time, elapsed time.Duration) {
	switch name {
	case "solve":
		t.mu.Lock()
		t.p.MapJobsDone++
		t.mu.Unlock()
	case "merge":
		t.mu.Lock()
		t.p.MergeJobsDone++
		t.mu.Unlock()
	}
}
