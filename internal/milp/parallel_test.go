package milp

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"rahtm/internal/lp"
	"rahtm/internal/workerpanic"
)

// randomBinaryMILP builds a random binary MILP with n variables and m LE
// rows; coefficients are small integers so ties and degenerate relaxations
// are common (the hard cases for search determinism).
func randomBinaryMILP(rng *rand.Rand, n, m int) *Problem {
	base := lp.NewProblem(0)
	p := NewProblem(base)
	vars := make([]int, n)
	for j := 0; j < n; j++ {
		vars[j] = p.AddBinary(float64(rng.Intn(21)-10), "")
	}
	for i := 0; i < m; i++ {
		var terms []lp.Term
		for j := 0; j < n; j++ {
			if a := rng.Intn(9) - 2; a != 0 {
				terms = append(terms, lp.Term{Var: vars[j], Coef: float64(a)})
			}
		}
		if len(terms) > 0 {
			base.AddConstraint(terms, lp.LE, float64(rng.Intn(12)))
		}
	}
	return p
}

// wantSameResult asserts two results are bitwise identical in every field —
// the parallel-mode contract, not an approximate comparison.
func wantSameResult(t *testing.T, seq, par *Result, label string) {
	t.Helper()
	if par.Status != seq.Status {
		t.Fatalf("%s: status %v, sequential %v", label, par.Status, seq.Status)
	}
	if par.Objective != seq.Objective {
		t.Fatalf("%s: objective %v, sequential %v", label, par.Objective, seq.Objective)
	}
	if par.Bound != seq.Bound {
		t.Fatalf("%s: bound %v, sequential %v", label, par.Bound, seq.Bound)
	}
	if par.Nodes != seq.Nodes || par.LPIters != seq.LPIters {
		t.Fatalf("%s: nodes/iters %d/%d, sequential %d/%d",
			label, par.Nodes, par.LPIters, seq.Nodes, seq.LPIters)
	}
	if (par.X == nil) != (seq.X == nil) || len(par.X) != len(seq.X) {
		t.Fatalf("%s: X shape %d (nil=%v), sequential %d (nil=%v)",
			label, len(par.X), par.X == nil, len(seq.X), seq.X == nil)
	}
	for j := range seq.X {
		if par.X[j] != seq.X[j] {
			t.Fatalf("%s: X[%d] = %v, sequential %v", label, j, par.X[j], seq.X[j])
		}
	}
}

// TestParallelMatchesSequential is the parallel-mode contract: over a batch
// of random MILPs (optimal and infeasible instances both), the speculative
// parallel search returns a Result bitwise identical to the sequential one —
// same status, objective, solution vector, bound, node and iteration counts.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		m := 1 + rng.Intn(4)
		seed := rng.Int63()
		seq := randomBinaryMILP(rand.New(rand.NewSource(seed)), n, m).Solve(Options{})
		for _, par := range []int{2, 4, 8} {
			p := randomBinaryMILP(rand.New(rand.NewSource(seed)), n, m)
			got := p.Solve(Options{Parallelism: par})
			wantSameResult(t, seq, got, "trial "+strconv.Itoa(trial)+" parallelism "+strconv.Itoa(par))
		}
	}
}

// TestParallelNodeBudgetDeterministic checks the cutoff path: a node budget
// truncates the identical trajectory at the identical point, so even a
// Feasible-not-Optimal result matches the sequential one exactly.
func TestParallelNodeBudgetDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		seed := rng.Int63()
		opt := Options{MaxNodes: 5}
		seq := randomBinaryMILP(rand.New(rand.NewSource(seed)), 7, 3).Solve(opt)
		p := randomBinaryMILP(rand.New(rand.NewSource(seed)), 7, 3)
		opt.Parallelism = 4
		got := p.Solve(opt)
		wantSameResult(t, seq, got, "budget trial "+strconv.Itoa(trial))
	}
}

// TestParallelGeneralInteger exercises the prefetchers on a general-integer
// model whose relaxation branches several levels deep.
func TestParallelGeneralInteger(t *testing.T) {
	build := func() *Problem {
		base := lp.NewProblem(0)
		p := NewProblem(base)
		// minimize -3x - 2y s.t. 2x + y <= 11, x + 3y <= 12, x,y integer >= 0.
		x := base.AddVariable(-3, "x")
		y := base.AddVariable(-2, "y")
		base.AddConstraint([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 1}}, lp.LE, 11)
		base.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 3}}, lp.LE, 12)
		p.MarkInteger(x)
		p.MarkInteger(y)
		return p
	}
	seq := build().Solve(Options{})
	par := build().Solve(Options{Parallelism: 4})
	wantSameResult(t, seq, par, "general-integer")
	wantStatus(t, par, Optimal)
}

// TestPrefetchWorkerPanic injects a panic into every relaxation a prefetch
// worker runs. The coordinator must not wait forever on the node the
// worker claimed, and the panic must surface from Solve — on the caller's
// goroutine, where it can be recovered — as a *workerpanic.Panic carrying
// the worker's value and stack. Whether a worker claims a node before the
// coordinator gets to it is up to the scheduler, so the test runs on at
// least two CPUs and solves problems until one does.
func TestPrefetchWorkerPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	prev := prefetchRelax
	prefetchRelax = func(*Problem, context.Context, *node, lp.Options) (*lp.Solution, error) {
		panic("injected")
	}
	defer func() { prefetchRelax = prev }()
	solve := func(seed int64) (p *workerpanic.Panic) {
		defer func() {
			if v := recover(); v != nil {
				var ok bool
				if p, ok = v.(*workerpanic.Panic); !ok {
					t.Fatalf("seed %d: Solve panicked with %T %v, want *workerpanic.Panic", seed, v, v)
				}
			}
		}()
		randomBinaryMILP(rand.New(rand.NewSource(seed)), 14, 6).Solve(Options{Parallelism: 4})
		return nil
	}
	for seed := int64(1); seed <= 200; seed++ {
		if p := solve(seed); p != nil {
			if p.Value != "injected" || !strings.Contains(string(p.Stack), "prefetch") {
				t.Fatalf("re-raised %v with stack:\n%s", p.Value, p.Stack)
			}
			return
		}
	}
	t.Fatal("no prefetch worker claimed a node in 200 solves")
}
