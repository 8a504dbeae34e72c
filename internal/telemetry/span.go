package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"rahtm/internal/obs"
)

// Span is one timed unit of pipeline work on the recorder's timeline.
// Start is the offset from the recorder's epoch (its creation time), so
// exported timelines are self-contained and stable.
type Span struct {
	// Name is the span kind: "solve", "merge", "prepare", "leaves",
	// "fanout" for scheduler jobs, or "phase" for whole-phase envelopes.
	Name string `json:"name"`
	// Phase is the pipeline phase the work belongs to (obs.PhaseCluster,
	// obs.PhaseMap, obs.PhaseMerge).
	Phase string `json:"phase"`
	// Worker is the scheduler worker index that ran the job; -1 marks the
	// coordinating goroutine (phase envelopes, fan-outs, preparation).
	Worker int `json:"worker"`
	// Level is the hierarchy depth of the job, -1 when not applicable.
	Level int `json:"level"`
	// Hash is the structural fingerprint of the subproblem (sibling-group
	// key), 0 when not applicable.
	Hash uint64 `json:"hash,omitempty"`
	// TraceID is the request identity the span belongs to, "" for spans
	// recorded outside a request scope (CLI runs).
	TraceID string `json:"trace,omitempty"`
	// Start is the offset from the recorder epoch.
	Start time.Duration `json:"start_ns"`
	// Dur is the span's wall-clock duration.
	Dur time.Duration `json:"dur_ns"`
}

// End returns Start + Dur.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// Recorder collects pipeline spans. It implements obs.Observer (phase
// boundaries become "phase" envelope spans beside the per-job spans of the
// level-wise scheduler), and is safe for concurrent use — attach it to the
// solve context via obs.Tee alongside logging and progress observers.
type Recorder struct {
	obs.Nop
	mu      sync.Mutex
	epoch   time.Time
	spans   []Span
	opened  map[string]time.Time // phase -> PhaseStart time
	traceID string
}

// NewRecorder returns an empty recorder whose epoch (timeline zero) is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now(), opened: map[string]time.Time{}}
}

// SetTraceID stamps id on every span recorded from now on. The serving
// layer sets it right after construction so a request recorder's whole
// timeline carries the request's identity.
func (r *Recorder) SetTraceID(id string) {
	r.mu.Lock()
	r.traceID = id
	r.mu.Unlock()
}

// TraceID returns the stamp set by SetTraceID ("" by default).
func (r *Recorder) TraceID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traceID
}

// PhaseStart implements obs.Observer.
func (r *Recorder) PhaseStart(phase string) {
	r.mu.Lock()
	r.opened[phase] = time.Now()
	r.mu.Unlock()
}

// PhaseEnd implements obs.Observer: the completed phase becomes a "phase"
// envelope span.
func (r *Recorder) PhaseEnd(phase string, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	start, ok := r.opened[phase]
	if !ok {
		start = time.Now().Add(-elapsed)
	}
	delete(r.opened, phase)
	r.spans = append(r.spans, Span{
		Name:    "phase",
		Phase:   phase,
		Worker:  -1,
		Level:   -1,
		TraceID: r.traceID,
		Start:   start.Sub(r.epoch),
		Dur:     elapsed,
	})
}

// Span implements obs.Observer.
func (r *Recorder) Span(name, phase string, worker, level int, hash uint64, start time.Time, elapsed time.Duration) {
	sp := Span{
		Name:   name,
		Phase:  phase,
		Worker: worker,
		Level:  level,
		Hash:   hash,
		Start:  start.Sub(r.epoch),
		Dur:    elapsed,
	}
	r.mu.Lock()
	sp.TraceID = r.traceID
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of the recorded spans, sorted by start offset.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// PhaseSpan returns the envelope span of the given phase, if recorded. With
// multiple pipeline runs on one recorder the last envelope wins.
func (r *Recorder) PhaseSpan(phase string) (Span, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].Name == "phase" && r.spans[i].Phase == phase {
			return r.spans[i], true
		}
	}
	return Span{}, false
}

// PhaseCoverage returns the fraction of the phase envelope's wall time
// covered by the union of the phase's job spans (across all workers): 1.0
// means the timeline accounts for every moment of the phase, lower values
// expose untimed coordinator work or idle gaps. Returns 0 when the phase
// was not recorded or has zero duration.
func (r *Recorder) PhaseCoverage(phase string) float64 {
	env, ok := r.PhaseSpan(phase)
	if !ok || env.Dur <= 0 {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	r.mu.Lock()
	for _, s := range r.spans {
		if s.Name == "phase" || s.Phase != phase {
			continue
		}
		lo, hi := s.Start, s.End()
		if lo < env.Start {
			lo = env.Start
		}
		if hi > env.End() {
			hi = env.End()
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	r.mu.Unlock()
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, hi time.Duration
	lo := ivs[0].lo
	hi = ivs[0].hi
	for _, v := range ivs[1:] {
		if v.lo > hi {
			covered += hi - lo
			lo, hi = v.lo, v.hi
			continue
		}
		if v.hi > hi {
			hi = v.hi
		}
	}
	covered += hi - lo
	return float64(covered) / float64(env.Dur)
}

// WriteJSONL writes one JSON object per span (sorted by start offset) —
// the format downstream analysis scripts consume.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace-event (the Perfetto/chrome://tracing
// JSON format). Durations and timestamps are microseconds.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// WriteChromeTrace writes the spans as a Chrome trace-event file: load it
// in Perfetto (ui.perfetto.dev) or chrome://tracing to see the parallel
// worker timeline and idle gaps. Workers map to threads; the coordinating
// goroutine (phase envelopes, preparation, fan-out) is thread 0.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
	const pid = 1
	tidOf := func(worker int) int { return worker + 1 } // coordinator -1 -> 0
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]interface{}{"name": "rahtm pipeline"},
	}}
	threads := map[int]bool{}
	for _, s := range spans {
		threads[tidOf(s.Worker)] = true
	}
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		name := fmt.Sprintf("worker %d", tid-1)
		if tid == 0 {
			name = "coordinator"
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]interface{}{"name": name},
		})
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Phase,
			Ph:   "X",
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			Pid:  pid,
			Tid:  tidOf(s.Worker),
			Args: map[string]interface{}{"phase": s.Phase},
		}
		if s.Level >= 0 {
			ev.Args["level"] = s.Level
			ev.Name = fmt.Sprintf("%s L%d", s.Name, s.Level)
		}
		if s.Hash != 0 {
			ev.Args["hash"] = fmt.Sprintf("%#x", s.Hash)
		}
		events = append(events, ev)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events}); err != nil {
		return err
	}
	return bw.Flush()
}
