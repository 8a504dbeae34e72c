package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFromContext pins the carrier: no observer yields Nop, a nil observer
// leaves the context unchanged, and an attached observer comes back as is.
func TestFromContext(t *testing.T) {
	ctx := context.Background()
	if _, ok := FromContext(ctx).(Nop); !ok {
		t.Fatal("FromContext without an observer must yield Nop")
	}
	if NewContext(ctx, nil) != ctx {
		t.Fatal("NewContext with a nil observer must return ctx unchanged")
	}
	l := NewLog(&strings.Builder{})
	if FromContext(NewContext(ctx, l)) != Observer(l) {
		t.Fatal("FromContext must return the attached observer")
	}
}

func TestLogWritesEvents(t *testing.T) {
	var sb strings.Builder
	l := NewLog(&sb)
	l.PhaseStart(PhaseMerge)
	l.PhaseEnd(PhaseMerge, 3*time.Millisecond)
	l.SubproblemSolved(2, "milp", 4.5, true)
	l.AnnealSample(1, 256, 0.5, 10, 9)
	l.BeamRound(0, 3, 64, 7.25)
	l.LPIterations(1234)
	out := sb.String()
	for _, want := range []string{
		"phase merge start",
		"phase merge done",
		"level 2 subproblem solved by milp",
		"(cached)",
		"anneal restart 1",
		"merge step 3",
		"1234 simplex iterations",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("log missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "rahtm: ") {
			t.Fatalf("line %q missing prefix", line)
		}
	}
}

// TestLogZeroValueDiscards pins the documented zero-value contract: a zero
// Log, a nil *Log, and NewLog(nil) all silently discard events instead of
// panicking.
func TestLogZeroValueDiscards(t *testing.T) {
	var zero Log
	zero.PhaseStart(PhaseMap)
	zero.LPIterations(7)
	var nilLog *Log
	nilLog.PhaseEnd(PhaseMap, time.Second)
	nilLog.BeamRound(0, 0, 1, 1)
	l := NewLog(nil)
	l.PhaseStart(PhaseCluster)
	l.SubproblemSolved(0, "anneal", 1, false)
	l.WorkerPool(PhaseMap, 2, 3, time.Second)
}

// countingObserver records event counts.
type countingObserver struct {
	mu     sync.Mutex
	counts map[string]int
}

func newCountingObserver() *countingObserver {
	return &countingObserver{counts: map[string]int{}}
}

func (c *countingObserver) bump(k string) {
	c.mu.Lock()
	c.counts[k]++
	c.mu.Unlock()
}

func (c *countingObserver) count(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

func (c *countingObserver) PhaseStart(string)                           { c.bump("start") }
func (c *countingObserver) PhaseEnd(string, time.Duration)              { c.bump("end") }
func (c *countingObserver) SubproblemSolved(int, string, float64, bool) { c.bump("sub") }
func (c *countingObserver) AnnealSample(int, int, float64, float64, float64) {
	c.bump("anneal")
}
func (c *countingObserver) BeamRound(int, int, int, float64)           { c.bump("beam") }
func (c *countingObserver) LPIterations(int)                           { c.bump("lp") }
func (c *countingObserver) WorkerPool(string, int, int, time.Duration) { c.bump("pool") }
func (c *countingObserver) Span(string, string, int, int, uint64, time.Time, time.Duration) {
	c.bump("span")
}
func (c *countingObserver) JobsPlanned(string, int) { c.bump("planned") }

// TestTeeFanOut: the tee forwards all nine events to every non-nil member,
// and FromContext without an observer yields Nop.
func TestTeeFanOut(t *testing.T) {
	a, b := newCountingObserver(), newCountingObserver()
	o := Tee(nil, a, nil, b)
	o.PhaseStart(PhaseMap)
	o.PhaseEnd(PhaseMap, time.Second)
	o.SubproblemSolved(0, "milp", 1, false)
	o.AnnealSample(0, 0, 1, 1, 1)
	o.BeamRound(0, 0, 1, 1)
	o.LPIterations(5)
	o.WorkerPool(PhaseMap, 4, 8, time.Second)
	o.Span("solve", PhaseMap, 0, 1, 42, time.Now(), time.Millisecond)
	o.JobsPlanned(PhaseMap, 8)
	for _, k := range []string{"start", "end", "sub", "anneal", "beam", "lp", "pool", "span", "planned"} {
		if a.count(k) != 1 || b.count(k) != 1 {
			t.Fatalf("event %q: a=%d b=%d, want 1/1", k, a.count(k), b.count(k))
		}
	}
	if _, ok := FromContext(context.Background()).(Nop); !ok {
		t.Fatal("FromContext without an observer must yield Nop")
	}
}

func TestTeeDegenerateForms(t *testing.T) {
	if _, ok := Tee().(Nop); !ok {
		t.Fatal("empty Tee must collapse to Nop")
	}
	if _, ok := Tee(nil, nil).(Nop); !ok {
		t.Fatal("all-nil Tee must collapse to Nop")
	}
	l := NewLog(&strings.Builder{})
	if Tee(nil, l) != Observer(l) {
		t.Fatal("single-member Tee must return the member unchanged")
	}
}

// TestTeeConcurrentEmission hammers a tee from many goroutines; run with
// -race this verifies the fan-out adds no unsynchronized state.
func TestTeeConcurrentEmission(t *testing.T) {
	a := newCountingObserver()
	b := newCountingObserver()
	o := Tee(a, b, NewLog(&safeWriter{}))
	const goroutines, events = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				o.SubproblemSolved(g, "anneal", float64(i), i%2 == 0)
				o.BeamRound(g, i, 64, 1)
				o.Span("solve", PhaseMap, g, 0, uint64(i), time.Now(), time.Microsecond)
				o.JobsPlanned(PhaseMap, 1)
			}
		}(g)
	}
	wg.Wait()
	if got := a.count("sub"); got != goroutines*events {
		t.Fatalf("lost events: %d/%d", got, goroutines*events)
	}
	if got := b.count("span"); got != goroutines*events {
		t.Fatalf("lost spans: %d/%d", got, goroutines*events)
	}
}

// safeWriter is a mutex-guarded sink (strings.Builder alone is not safe for
// the concurrent Log writes this test provokes).
type safeWriter struct {
	mu sync.Mutex
	n  int
}

func (w *safeWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.n += len(p)
	w.mu.Unlock()
	return len(p), nil
}

func TestLogConcurrentUse(t *testing.T) {
	l := NewLog(&strings.Builder{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.BeamRound(i, j, 64, 1)
			}
		}(i)
	}
	wg.Wait()
}
