package rahtm

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// recObserver records events for assertions; safe for concurrent use.
type recObserver struct {
	NopObserver
	mu          sync.Mutex
	starts      []string
	ends        []string
	subproblems int
	samples     int
	rounds      int
	lpIters     int
	spans       int
}

func (r *recObserver) PhaseStart(phase string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts = append(r.starts, phase)
}

func (r *recObserver) PhaseEnd(phase string, _ time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, phase)
}

func (r *recObserver) SubproblemSolved(int, string, float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subproblems++
}

func (r *recObserver) AnnealSample(int, int, float64, float64, float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples++
}

func (r *recObserver) BeamRound(int, int, int, float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rounds++
}

func (r *recObserver) LPIterations(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lpIters += n
}

func (r *recObserver) Span(string, string, int, int, uint64, time.Time, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans++
}

// solveDetail runs m through Solve and returns the full pipeline output.
func solveDetail(ctx context.Context, m Mapper, w *Workload, t *Torus, conc int) (*PipelineResult, error) {
	res, err := Solve(ctx, Request{Work: w, Torus: t, Conc: conc, Config: &m})
	if err != nil {
		return nil, err
	}
	return res.Detail, nil
}

func TestPipelineCtxAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := Halo2D(8, 8, 10)
	tp := NewTorus(4, 4, 4)
	start := time.Now()
	_, err := solveDetail(ctx, Mapper{}, w, tp, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled pipeline still took %v", elapsed)
	}
}

func TestPipelineCtxDeadlineDegrades(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	w, err := CG(64)
	if err != nil {
		t.Fatal(err)
	}
	tp := NewTorus(4, 4, 4)
	res, err := solveDetail(ctx, Mapper{}, w, tp, 1)
	if err != nil {
		t.Fatalf("expired deadline must degrade, not fail: %v", err)
	}
	if err := res.NodeMapping.Validate(tp.N(), true); err != nil {
		t.Fatalf("degraded mapping invalid: %v", err)
	}
	if len(res.ProcToNode) != w.Procs() {
		t.Fatalf("got %d proc assignments, want %d", len(res.ProcToNode), w.Procs())
	}
	// The full run takes seconds on this configuration (see
	// TestPipelineObserverPhases's larger sibling), so a 20ms budget cannot
	// have completed the full search.
	if !res.Stats.Degraded {
		t.Fatal("Stats.Degraded not set after deadline expiry")
	}
}

func TestPipelineCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w, err := CG(64)
	if err != nil {
		t.Fatal(err)
	}
	tp := NewTorus(4, 4, 4)
	errc := make(chan error, 1)
	go func() {
		_, err := solveDetail(ctx, Mapper{}, w, tp, 1)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		// Either the run was canceled mid-flight, or (rarely, on a fast
		// machine) it completed before the cancel landed.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled or nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline did not return within 10s of cancellation")
	}
}

func TestPipelineObserverPhases(t *testing.T) {
	rec := &recObserver{}
	w := Halo2D(4, 4, 10)
	tp := NewTorus(4, 4)
	sres, err := Solve(context.Background(), Request{Work: w, Torus: tp, Conc: 1, Config: &Mapper{}, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	res := sres.Detail
	if res.Stats.Degraded {
		t.Fatal("unbudgeted run must not be degraded")
	}
	for _, phase := range []string{PhaseCluster, PhaseMap, PhaseMerge} {
		if !containsStr(rec.starts, phase) {
			t.Fatalf("no PhaseStart(%q); starts = %v", phase, rec.starts)
		}
		if !containsStr(rec.ends, phase) {
			t.Fatalf("no PhaseEnd(%q); ends = %v", phase, rec.ends)
		}
	}
	if rec.subproblems == 0 {
		t.Fatal("no SubproblemSolved events")
	}
	if rec.rounds == 0 {
		t.Fatal("no BeamRound events")
	}
}

func TestLogObserverWrites(t *testing.T) {
	var sb strings.Builder
	o := NewLogObserver(&sb)
	w := Halo2D(4, 4, 10)
	tp := NewTorus(4, 4)
	if _, err := solveDetail(WithObserver(context.Background(), o), Mapper{}, w, tp, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"phase cluster start", "phase map start", "phase merge start", "done in"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out)
		}
	}
}

// TestWithObserverReachesCompareCtx: an observer on the context reaches the
// RAHTM pipeline that CompareCtx runs beside the baselines.
func TestWithObserverReachesCompareCtx(t *testing.T) {
	rec := &recObserver{}
	w := Halo2D(4, 4, 10)
	tp := NewTorus(4, 4)
	if _, err := CompareCtx(WithObserver(context.Background(), rec), w, tp, 1, StandardMappers(tp), Model{}); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{PhaseCluster, PhaseMap, PhaseMerge} {
		if !containsStr(rec.starts, phase) {
			t.Fatalf("no PhaseStart(%q); starts = %v", phase, rec.starts)
		}
	}
	if rec.spans == 0 {
		t.Fatal("no Span events")
	}
}

// TestRequestObserverOverridesContext: Request.Observer takes the events
// and the observer the context carries sees none.
func TestRequestObserverOverridesContext(t *testing.T) {
	ctxRec, reqRec := &recObserver{}, &recObserver{}
	ctx := WithObserver(context.Background(), ctxRec)
	w := Halo2D(4, 4, 10)
	if _, err := Solve(ctx, Request{Work: w, Torus: NewTorus(4, 4), Observer: reqRec}); err != nil {
		t.Fatal(err)
	}
	if len(reqRec.starts) != 3 || reqRec.spans == 0 {
		t.Fatalf("Request.Observer saw starts %v and %d spans", reqRec.starts, reqRec.spans)
	}
	if len(ctxRec.starts) != 0 || ctxRec.spans != 0 {
		t.Fatalf("context observer saw starts %v and %d spans despite Request.Observer", ctxRec.starts, ctxRec.spans)
	}
}

func TestCompareCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := Halo2D(4, 4, 10)
	tp := NewTorus(4, 4)
	_, err := CompareCtx(ctx, w, tp, 1, StandardMappers(tp), Model{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapperImplementsCtxProcMapper(t *testing.T) {
	var m ProcMapper = Mapper{}
	if _, ok := m.(CtxProcMapper); !ok {
		t.Fatal("Mapper must implement CtxProcMapper")
	}
}

func TestStandardPermutationsDeduped(t *testing.T) {
	for _, tc := range []struct {
		topo *Torus
		want []string
	}{
		{NewTorus(8), []string{"AT", "TA"}},
		{NewTorus(4, 4), []string{"ABT", "TAB"}},
		{NewTorus(4, 4, 4), []string{"ABCT", "TABC", "ACBT"}},
	} {
		ps := StandardPermutations(tc.topo)
		if len(ps) != len(tc.want) {
			t.Fatalf("%v: got %d permutations, want %v", tc.topo, len(ps), tc.want)
		}
		for i, p := range ps {
			if p.Name() != tc.want[i] {
				t.Fatalf("%v: permutation %d = %q, want %q", tc.topo, i, p.Name(), tc.want[i])
			}
		}
	}
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
