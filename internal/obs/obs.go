// Package obs defines the Observer tracing layer of the RAHTM pipeline:
// one event interface through which long-running phases (clustering,
// hierarchical cube mapping, beam merging, LP/MILP solves) and the
// level-wise scheduler report structured progress to the caller.
//
// An Observer reaches the pipeline on the solve context, beside the
// telemetry scope and the deadline: NewContext attaches one and each
// pipeline layer reads it once with FromContext, which yields Nop when none
// is attached. Log writes line-oriented events to an io.Writer, serialized
// by an internal mutex. Every implementation MUST be safe for concurrent
// use: the level-wise scheduler solves Phase 2 subproblems and Phase 3
// merges on worker goroutines, so callbacks fire concurrently whenever the
// pipeline runs with Parallelism != 1.
package obs

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// Pipeline phase names passed to PhaseStart / PhaseEnd.
const (
	PhaseCluster = "cluster" // Phase 1: concentration + per-level coarsening
	PhaseMap     = "map"     // Phase 2: top-down cube mapping
	PhaseMerge   = "merge"   // Phase 3: bottom-up beam merging
)

// Observer receives structured progress events from the RAHTM pipeline.
// Callbacks must not block; the pipeline invokes them synchronously on its
// hot paths (sampled, so the volume stays modest).
//
// Thread safety: implementations must be safe for concurrent use. With
// pipeline Parallelism != 1 the Phase 2/3 level-wise scheduler invokes
// SubproblemSolved, AnnealSample, BeamRound, LPIterations and Span from
// multiple worker goroutines at once (PhaseStart, PhaseEnd, WorkerPool and
// JobsPlanned remain single-threaded).
// Guard mutable state with a mutex, as Log does.
type Observer interface {
	// PhaseStart fires when a pipeline phase begins (PhaseCluster,
	// PhaseMap, PhaseMerge).
	PhaseStart(phase string)
	// PhaseEnd fires when the phase completes, with its wall-clock
	// duration.
	PhaseEnd(phase string, elapsed time.Duration)
	// SubproblemSolved fires once per Phase 2 cube subproblem: hierarchy
	// level, solver method, achieved MCL, and whether the solution came
	// from the sibling-reuse cache.
	SubproblemSolved(level int, method string, mcl float64, cached bool)
	// AnnealSample reports a sampled point of a simulated-annealing run:
	// restart index, iteration, current temperature, current energy
	// (MCL), and best energy so far.
	AnnealSample(restart, iter int, temp, energy, best float64)
	// BeamRound reports one Phase 3 merge step: hierarchy level, step
	// index within the merge, surviving candidate count, and the best MCL
	// in the beam.
	BeamRound(level, step, candidates int, bestMCL float64)
	// LPIterations reports simplex iterations spent by an LP or MILP
	// solve.
	LPIterations(iters int)

	// WorkerPool reports a phase's scheduler configuration and cost once
	// per phase, from the coordinating goroutine: the worker count, the
	// number of jobs (representative subproblem solves or merges)
	// dispatched, and the cumulative busy time across workers (with W
	// workers this may exceed the phase wall time by up to a factor of W).
	WorkerPool(phase string, workers, jobs int, busy time.Duration)
	// Span reports one completed unit of scheduler work. name identifies
	// the kind ("solve", "merge", "prepare", "leaves", "fanout"); phase is
	// the enclosing pipeline phase; worker is the scheduler worker index
	// that ran the job (-1 for the coordinating goroutine); level is the
	// hierarchy depth; hash is the structural fingerprint of the
	// subproblem (0 when not applicable). Unlike the events above, which
	// the scheduler commits in deterministic sibling index order, spans
	// fire from worker goroutines the moment each job finishes, so their
	// order varies run to run.
	Span(name, phase string, worker, level int, hash uint64, start time.Time, elapsed time.Duration)
	// JobsPlanned reports that the scheduler is about to dispatch n more
	// jobs (representative solves or merges) in the given phase, which
	// lets live progress views report done/total counts.
	JobsPlanned(phase string, n int)
}

// Nop is the no-op Observer; the pipeline default.
type Nop struct{}

// PhaseStart implements Observer.
func (Nop) PhaseStart(string) {}

// PhaseEnd implements Observer.
func (Nop) PhaseEnd(string, time.Duration) {}

// SubproblemSolved implements Observer.
func (Nop) SubproblemSolved(int, string, float64, bool) {}

// AnnealSample implements Observer.
func (Nop) AnnealSample(int, int, float64, float64, float64) {}

// BeamRound implements Observer.
func (Nop) BeamRound(int, int, int, float64) {}

// LPIterations implements Observer.
func (Nop) LPIterations(int) {}

// WorkerPool implements Observer.
func (Nop) WorkerPool(string, int, int, time.Duration) {}

// Span implements Observer.
func (Nop) Span(string, string, int, int, uint64, time.Time, time.Duration) {}

// JobsPlanned implements Observer.
func (Nop) JobsPlanned(string, int) {}

// ctxKey is the context key carrying an Observer.
type ctxKey struct{}

// NewContext returns a context carrying o, for the pipeline to pick up with
// FromContext. A nil o returns ctx unchanged.
func NewContext(ctx context.Context, o Observer) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, o)
}

// FromContext returns the Observer carried by ctx, or Nop when none is
// attached. Call it once per solve, leaf solve or merge — not in hot loops.
func FromContext(ctx context.Context) Observer {
	if o, ok := ctx.Value(ctxKey{}).(Observer); ok {
		return o
	}
	return Nop{}
}

// Tee returns an Observer that fans every event out to all non-nil members,
// in argument order. With zero non-nil members it returns Nop; with one,
// that member unchanged.
//
// The tee adds no synchronization of its own: it is safe for concurrent use
// exactly when every member is, which the Observer contract already
// requires.
func Tee(members ...Observer) Observer {
	kept := make([]Observer, 0, len(members))
	for _, o := range members {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return Nop{}
	case 1:
		return kept[0]
	}
	return tee(kept)
}

type tee []Observer

// PhaseStart implements Observer.
func (t tee) PhaseStart(phase string) {
	for _, o := range t {
		o.PhaseStart(phase)
	}
}

// PhaseEnd implements Observer.
func (t tee) PhaseEnd(phase string, elapsed time.Duration) {
	for _, o := range t {
		o.PhaseEnd(phase, elapsed)
	}
}

// SubproblemSolved implements Observer.
func (t tee) SubproblemSolved(level int, method string, mcl float64, cached bool) {
	for _, o := range t {
		o.SubproblemSolved(level, method, mcl, cached)
	}
}

// AnnealSample implements Observer.
func (t tee) AnnealSample(restart, iter int, temp, energy, best float64) {
	for _, o := range t {
		o.AnnealSample(restart, iter, temp, energy, best)
	}
}

// BeamRound implements Observer.
func (t tee) BeamRound(level, step, candidates int, bestMCL float64) {
	for _, o := range t {
		o.BeamRound(level, step, candidates, bestMCL)
	}
}

// LPIterations implements Observer.
func (t tee) LPIterations(iters int) {
	for _, o := range t {
		o.LPIterations(iters)
	}
}

// WorkerPool implements Observer.
func (t tee) WorkerPool(phase string, workers, jobs int, busy time.Duration) {
	for _, o := range t {
		o.WorkerPool(phase, workers, jobs, busy)
	}
}

// Span implements Observer.
func (t tee) Span(name, phase string, worker, level int, hash uint64, start time.Time, elapsed time.Duration) {
	for _, o := range t {
		o.Span(name, phase, worker, level, hash, start, elapsed)
	}
}

// JobsPlanned implements Observer.
func (t tee) JobsPlanned(phase string, n int) {
	for _, o := range t {
		o.JobsPlanned(phase, n)
	}
}

// Log is an Observer that writes one "rahtm: "-prefixed line per event to
// an io.Writer, serialized by an internal mutex. It is safe for concurrent
// use.
//
// The zero value (and a nil *Log) is a valid observer that silently
// discards every event — a Log carries its writer only through NewLog, so a
// zero Log has nowhere to write. Construct with NewLog; do not copy a Log
// after first use (it contains a mutex).
type Log struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLog returns a Log writing to w. A nil w yields an observer that
// discards every event.
func NewLog(w io.Writer) *Log { return &Log{w: w} }

func (l *Log) printf(format string, args ...interface{}) {
	if l == nil || l.w == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "rahtm: "+format+"\n", args...)
}

// PhaseStart implements Observer.
func (l *Log) PhaseStart(phase string) { l.printf("phase %s start", phase) }

// PhaseEnd implements Observer.
func (l *Log) PhaseEnd(phase string, elapsed time.Duration) {
	l.printf("phase %s done in %v", phase, elapsed)
}

// SubproblemSolved implements Observer.
func (l *Log) SubproblemSolved(level int, method string, mcl float64, cached bool) {
	suffix := ""
	if cached {
		suffix = " (cached)"
	}
	l.printf("level %d subproblem solved by %s, mcl %.4g%s", level, method, mcl, suffix)
}

// AnnealSample implements Observer.
func (l *Log) AnnealSample(restart, iter int, temp, energy, best float64) {
	l.printf("anneal restart %d iter %d temp %.4g energy %.4g best %.4g",
		restart, iter, temp, energy, best)
}

// BeamRound implements Observer.
func (l *Log) BeamRound(level, step, candidates int, bestMCL float64) {
	l.printf("level %d merge step %d: %d candidates, best mcl %.4g",
		level, step, candidates, bestMCL)
}

// LPIterations implements Observer.
func (l *Log) LPIterations(iters int) { l.printf("lp solve: %d simplex iterations", iters) }

// WorkerPool implements Observer.
func (l *Log) WorkerPool(phase string, workers, jobs int, busy time.Duration) {
	l.printf("phase %s scheduler: %d workers, %d jobs, %v cumulative work", phase, workers, jobs, busy)
}

// Span implements Observer. Log prints no per-job lines: one per scheduler
// job would drown the phase trace; WorkerPool summarizes them instead.
func (*Log) Span(string, string, int, int, uint64, time.Time, time.Duration) {}

// JobsPlanned implements Observer; Log prints nothing for it.
func (*Log) JobsPlanned(string, int) {}
