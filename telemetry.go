package rahtm

// Telemetry surface: the metrics registry, span timeline recorder, live
// progress tracker, HTTP endpoint, and end-of-run report implemented in
// internal/telemetry. Counters are process-wide and always on (the hot
// paths batch and stripe their updates; overhead is within 2% of pipeline
// wall time — see DESIGN.md §8); spans and progress are only collected when
// a SpanRecorder / ProgressTracker observer rides the solve context
// (WithObserver or Request.Observer), typically composed with TeeObservers.

import (
	"io"

	"rahtm/internal/core"
	"rahtm/internal/obs"
	"rahtm/internal/telemetry"
)

type (
	// PhaseStats reports where pipeline time went (PipelineResult.Stats).
	PhaseStats = core.PhaseStats
	// SpanRecorder is an Observer that records every scheduler job
	// (representative solves, sibling fan-outs, merges, phase envelopes)
	// as a timed span, exportable as JSONL or a Chrome trace-event file.
	SpanRecorder = telemetry.Recorder
	// Span is one timed unit of recorded pipeline work.
	Span = telemetry.Span
	// ProgressTracker is an Observer that maintains a live Progress view.
	ProgressTracker = telemetry.ProgressTracker
	// Progress is a point-in-time view of a running pipeline.
	Progress = telemetry.Progress
	// MetricsSnapshot is a point-in-time view of the process-wide metrics
	// registry; Sub computes per-run deltas of the cumulative counters.
	MetricsSnapshot = telemetry.Snapshot
	// MetricsServer is a live telemetry HTTP endpoint (expvar + /metrics).
	MetricsServer = telemetry.Server
	// PhaseTime is one row of the end-of-run telemetry report.
	PhaseTime = telemetry.PhaseTime
	// Scope is a request-local telemetry scope: a trace ID plus a private
	// metrics registry the solver layers write into when the scope rides
	// the solve context. Solve folds the scope's counters back into the
	// process-wide registry on exit and reports the per-request delta in
	// Result.Metrics.
	Scope = telemetry.Scope
)

var (
	// NewSpanRecorder returns an empty span recorder (timeline zero = now).
	NewSpanRecorder = telemetry.NewRecorder
	// NewProgressTracker returns an empty progress tracker.
	NewProgressTracker = telemetry.NewProgressTracker
	// NewScope builds a request-local telemetry scope; an empty trace ID
	// draws a fresh random one.
	NewScope = telemetry.NewScope
	// WithScope attaches a scope to a context for Solve to pick up.
	WithScope = telemetry.WithScope
	// WithObserver attaches an Observer to a context: every RAHTM pipeline
	// run under it (Solve, Mapper.MapProcsCtx, CompareCtx) reports its
	// events there. A nil observer returns the context unchanged. Unlike a
	// scope, an observer changes nothing in the Result.
	WithObserver = obs.NewContext
	// ScopeFrom retrieves the scope carried by a context (nil when absent).
	ScopeFrom = telemetry.ScopeFrom
	// NewTraceID draws a 16-hex-character random trace identifier.
	NewTraceID = telemetry.NewTraceID
)

// Metrics returns a snapshot of the process-wide metrics registry
// (stencil-cache hits/misses, sibling-reuse counts, simplex pivots, MILP
// nodes, anneal acceptance, beam pruning).
func Metrics() MetricsSnapshot { return telemetry.Default.Snapshot() }

// ServeMetrics starts a live telemetry endpoint on addr serving expvar JSON
// (/debug/vars) and a combined progress+metrics snapshot (/metrics).
// progress supplies the live view (typically ProgressTracker.Snapshot); nil
// serves metrics only. Close the returned server when done.
func ServeMetrics(addr string, progress func() Progress) (*MetricsServer, error) {
	return telemetry.Serve(addr, nil, progress)
}

// PhaseTimes converts pipeline PhaseStats into the per-phase rows of the
// telemetry report. The jobs columns count committed subproblems and
// merges (sibling-reuse copies included).
func PhaseTimes(s PhaseStats) []PhaseTime {
	return []PhaseTime{
		{Name: obs.PhaseCluster, Wall: s.ClusterTime},
		{Name: obs.PhaseMap, Wall: s.MapTime, Work: s.MapWorkTime, Jobs: s.Subproblems},
		{Name: obs.PhaseMerge, Wall: s.MergeTime, Work: s.MergeWorkTime, Jobs: s.Merges},
	}
}

// WriteTelemetryReport prints the end-of-run report table: per-phase wall
// time, effective parallelism, cache hit rates and solver effort from the
// process-wide registry. A nil stats prints the counters-only form (no
// phase table), which is what trace-driven tools use.
func WriteTelemetryReport(w io.Writer, stats *PhaseStats) error {
	if stats == nil {
		return telemetry.WriteReport(w, 0, nil, telemetry.Default.Snapshot())
	}
	return telemetry.WriteReport(w, stats.Parallelism, PhaseTimes(*stats), telemetry.Default.Snapshot())
}
