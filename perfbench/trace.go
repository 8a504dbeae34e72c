package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rahtm"
)

// span is one timed unit on the benchmark's trace timeline: a call the
// benchmark made into a layer, or a pipeline span (phase envelope or
// scheduler job) reported to the benchmark's observer during a Solve.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`          // 0 = root
	Trace  string        `json:"trace,omitempty"` // shared by one request's spans
	Name   string        `json:"name"`            // call name or pipeline job kind
	Layer  string        `json:"layer"`           // module the time is spent in
	Level  int           `json:"level"`           // hierarchy level, -1 when not applicable
	Start  time.Duration `json:"start_ns"`        // offset from the tracer epoch
	Dur    time.Duration `json:"dur_ns"`
}

func (s span) end() time.Duration { return s.Start + s.Dur }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID allocates a span ID; a nil tracer (an untraced run or pass)
// returns 0 and records nothing.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call times fn and, on a non-nil tracer, records it as a span of layer
// under parent. fn receives the span's ID (0 when untraced) so it can
// parent spans of its own. call returns the duration and the ID.
func (t *tracer) call(name, layer string, parent int64, trace string, fn func(id int64)) (time.Duration, int64) {
	id := t.newID()
	start := time.Now()
	fn(id)
	d := time.Since(start)
	if t != nil {
		t.record(span{ID: id, Parent: parent, Trace: trace, Name: name, Layer: layer,
			Level: -1, Start: start.Sub(t.epoch), Dur: d})
	}
	return d, id
}

// write stores the spans as JSON lines after a header line carrying the
// machine fingerprint.
func (t *tracer) write(path string, fp fingerprint) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"fingerprint": fp}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pipelineObserver records the spans one Solve call's pipeline emits —
// phase envelopes and the scheduler's job spans — as children of that
// call's span: Solve -> phase -> job.
type pipelineObserver struct {
	rahtm.NopObserver
	t      *tracer
	parent int64
	trace  string
	mu     sync.Mutex
	open   map[string]openPhase
}

type openPhase struct {
	id    int64
	start time.Time
}

func newPipelineObserver(t *tracer, parent int64, trace string) *pipelineObserver {
	return &pipelineObserver{t: t, parent: parent, trace: trace, open: map[string]openPhase{}}
}

func (o *pipelineObserver) phaseID(phase string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.open[phase].id
}

// PhaseStart implements rahtm.Observer.
func (o *pipelineObserver) PhaseStart(phase string) {
	o.mu.Lock()
	o.open[phase] = openPhase{id: o.t.newID(), start: time.Now()}
	o.mu.Unlock()
}

// PhaseEnd implements rahtm.Observer: the phase becomes an envelope span.
func (o *pipelineObserver) PhaseEnd(phase string, elapsed time.Duration) {
	o.mu.Lock()
	p, ok := o.open[phase]
	if !ok {
		p = openPhase{id: o.t.newID(), start: time.Now().Add(-elapsed)}
	}
	o.mu.Unlock()
	o.t.record(span{ID: p.id, Parent: o.parent, Trace: o.trace, Name: "phase", Layer: phase,
		Level: -1, Start: p.start.Sub(o.t.epoch), Dur: elapsed})
}

// Span implements rahtm.SpanObserver.
func (o *pipelineObserver) Span(name, phase string, _, level int, _ uint64, start time.Time, elapsed time.Duration) {
	o.t.record(span{ID: o.t.newID(), Parent: o.phaseID(phase), Trace: o.trace, Name: name,
		Layer: phase, Level: level, Start: start.Sub(o.t.epoch), Dur: elapsed})
}

// layerKey groups self time: a layer's spans at one hierarchy level.
type layerKey struct {
	Layer string
	Name  string
	Level int
}

// selfTimes returns the self time of each span in ids' subtrees — its
// duration minus the part of its interval its children cover — summed by
// (layer, name, level), along with the summed phase-envelope and Solve
// durations used for coverage. roots are the Solve span IDs to include.
func (t *tracer) selfTimes(roots map[int64]bool) (self map[layerKey]time.Duration, phases, solves time.Duration) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	byID := map[int64]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
		byID[s.ID] = s
	}
	self = map[layerKey]time.Duration{}
	var walk func(s span)
	walk = func(s span) {
		kids := children[s.ID]
		self[layerKey{s.Layer, s.Name, s.Level}] += s.Dur - covered(s, kids)
		for _, k := range kids {
			if k.Name == "phase" {
				phases += k.Dur
			}
			walk(k)
		}
	}
	for id := range roots {
		s, ok := byID[id]
		if !ok {
			continue
		}
		solves += s.Dur
		walk(s)
	}
	return self, phases, solves
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.end(), s.end())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo > cur.hi:
			total += cur.hi - cur.lo
			cur = v
		case v.hi > cur.hi:
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// reportTrace turns the traced Solve calls into the trace.* metrics:
// per-level self time of Phase 2 (map) and Phase 3 (merge) jobs, the
// uncovered self time of each phase envelope and of Solve itself, phase
// coverage of Solve wall time, and the tracing overhead. perSolve divides
// the summed self times into per-pass (or per-solve) figures.
func (b *bench) reportTrace(roots map[int64]bool, perSolve int, traced, untraced []float64) {
	self, phases, solves := b.tr.selfTimes(roots)
	per := func(d time.Duration) float64 { return d.Seconds() / float64(max(perSolve, 1)) }
	levelSelf := func(phase string, level int) time.Duration {
		var d time.Duration
		for k, v := range self {
			if k.Layer == phase && k.Level == level && k.Name != "phase" {
				d += v
			}
		}
		return d
	}
	for _, phase := range []string{rahtm.PhaseMap, rahtm.PhaseMerge} {
		for level := 0; level <= 1; level++ {
			b.set(fmt.Sprintf("trace.%s.L%d.self_s", phase, level), "s", per(levelSelf(phase, level)), perSolve)
		}
		b.set("trace."+phase+".self_s", "s", per(self[layerKey{phase, "phase", -1}]), perSolve)
	}
	b.set("trace.cluster.self_s", "s", per(self[layerKey{rahtm.PhaseCluster, "phase", -1}]), perSolve)
	b.set("trace.solve.self_s", "s", per(self[layerKey{"rahtm", "Solve", -1}]), perSolve)
	b.set("trace.coverage", "ratio", ratio(phases.Seconds(), solves.Seconds()), len(roots))
	b.set("trace.overhead_frac", "ratio", ratio(median(traced), median(untraced))-1, len(traced))

	// The full per-layer, per-level table goes to the report line.
	rows := map[string]float64{}
	for k, v := range self {
		rows[fmt.Sprintf("%s/%s/L%d", k.Layer, k.Name, k.Level)] = per(v)
	}
	b.samples["self_s_by_layer_level"] = rows
}
