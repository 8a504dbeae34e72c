package rahtm

// Observer tracing surface: the pipeline emits phase boundaries, subproblem
// solves, annealing samples, beam rounds, LP iteration counts, scheduler
// spans and worker-pool reports to the Observer the solve context carries
// (WithObserver, or Request.Observer on Solve). The implementation lives in
// internal/obs so every pipeline layer can import it; these aliases are the
// supported public surface.

import (
	"io"

	"rahtm/internal/obs"
)

// Observer receives pipeline trace events. All methods must be safe for
// concurrent use: the level-wise scheduler solves Phase 2 subproblems and
// Phase 3 merges on worker goroutines (and Phase 3 additionally scores beam
// candidates from a worker pool), so callbacks fire concurrently whenever
// the pipeline runs with Parallelism != 1. Spans fire from worker
// goroutines in completion order — timing-domain, not deterministic.
type Observer = obs.Observer

// NopObserver ignores every event. Embed it in implementations that only
// care about some events.
type NopObserver = obs.Nop

// LogObserver writes one line per event to an io.Writer, serialized by an
// internal mutex. It is what `rahtm-map -verbose` and `rahtm-bench -verbose`
// attach to stderr.
type LogObserver = obs.Log

// NewLogObserver returns a LogObserver writing to w with the default
// "rahtm: " line prefix.
func NewLogObserver(w io.Writer) *LogObserver { return obs.NewLog(w) }

// TeeObservers fans every pipeline event out to all non-nil observers, so
// logging, span recording, and live progress compose.
func TeeObservers(members ...Observer) Observer { return obs.Tee(members...) }

// Phase names passed to Observer.PhaseStart/PhaseEnd.
const (
	PhaseCluster = obs.PhaseCluster
	PhaseMap     = obs.PhaseMap
	PhaseMerge   = obs.PhaseMerge
)
