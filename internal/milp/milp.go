// Package milp implements a branch-and-bound mixed integer linear program
// solver on top of the dense simplex in internal/lp.
//
// It is the substitute for the commercial CPLEX solver the RAHTM paper uses
// to solve the Table II mapping formulation. The solver supports:
//
//   - binary / general non-negative integer variables (branching adds bound
//     rows along the tree path; LP relaxations are re-solved from scratch,
//     which is cheap at the subproblem sizes RAHTM produces);
//   - best-bound search with depth-first plunging for early incumbents;
//   - warm starting from a caller-supplied incumbent (RAHTM seeds it with a
//     simulated-annealing mapping);
//   - a wall-clock deadline and node budget, after which the best incumbent
//     is returned (mirroring the paper's tolerance for hours-long offline
//     solves, scaled down);
//   - a speculative parallel mode (Options.Parallelism) in which worker
//     goroutines pull the best open nodes off the shared best-bound heap and
//     pre-solve their LP relaxations while the coordinator replays the exact
//     sequential search. A relaxation depends only on the node's branching
//     bounds — never on the incumbent — so prefetched solutions are valid
//     whenever they were computed, and the coordinator's pop / prune /
//     incumbent / branch sequence is identical to the sequential one. The
//     Result (status, objective, solution vector, bound, node and iteration
//     counts) is therefore bitwise identical at any parallelism; only
//     wall-clock time changes. Workers consult the mutex-guarded incumbent
//     bound so they never speculate on nodes the coordinator will prune.
package milp

import (
	"container/heap"
	"context"
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"rahtm/internal/lp"
	"rahtm/internal/telemetry"
	"rahtm/internal/workerpanic"
)

// Branch-and-bound effort counters on the process-wide registry, flushed
// once per solve (never per node).
var (
	ctrMILPSolves = telemetry.Default.Counter(telemetry.CtrMILPSolves)
	ctrMILPNodes  = telemetry.Default.Counter(telemetry.CtrMILPNodes)
)

// Status reports the outcome of a MILP solve.
type Status int8

// Solve outcomes.
const (
	// Optimal means the incumbent was proved optimal within tolerance.
	Optimal Status = iota
	// Feasible means an integer solution was found but optimality was not
	// proved before the deadline or node budget ran out.
	Feasible
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Unknown means the search was cut off before finding any incumbent.
	Unknown
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unknown:
		return "unknown"
	}
	return "bad-status"
}

// Problem couples an LP with integrality requirements. The LP is treated as
// a minimization and must keep all variables non-negative (the lp package
// convention). Binary variables should additionally carry an x <= 1 row,
// which AddBinary arranges.
type Problem struct {
	LP      *lp.Problem
	intVars []int // sorted variable indices required to be integral
}

// NewProblem wraps base (not copied; the solver clones per node).
func NewProblem(base *lp.Problem) *Problem {
	return &Problem{LP: base}
}

// MarkInteger requires variable v to take an integer value.
func (p *Problem) MarkInteger(v int) {
	i := sort.SearchInts(p.intVars, v)
	if i < len(p.intVars) && p.intVars[i] == v {
		return
	}
	p.intVars = append(p.intVars, 0)
	copy(p.intVars[i+1:], p.intVars[i:])
	p.intVars[i] = v
}

// AddBinary creates a fresh binary variable: objective coefficient c, an
// upper bound row x <= 1, and an integrality mark. Returns the index.
func (p *Problem) AddBinary(c float64, name string) int {
	v := p.LP.AddVariable(c, name)
	p.LP.AddConstraint([]lp.Term{{Var: v, Coef: 1}}, lp.LE, 1)
	p.MarkInteger(v)
	return v
}

// IntegerVariables returns the indices marked integral (sorted, shared slice —
// do not mutate).
func (p *Problem) IntegerVariables() []int { return p.intVars }

// Options tunes the branch-and-bound search. Zero values select defaults.
type Options struct {
	// Deadline, when non-zero, stops the search at that wall-clock time and
	// returns the incumbent.
	Deadline time.Time
	// MaxNodes bounds the number of branch-and-bound nodes (<= 0: 200000).
	MaxNodes int
	// Tol is the integrality/optimality tolerance (<= 0: 1e-6).
	Tol float64
	// Incumbent optionally provides a known integer-feasible solution used
	// to prune from the start. Objective is computed from the LP.
	Incumbent []float64
	// LPOptions is passed through to every relaxation solve.
	LPOptions lp.Options
	// Parallelism, when >= 2, spawns that many prefetch workers that
	// speculatively solve LP relaxations of open nodes ahead of the
	// coordinator. The Result is bitwise identical to the sequential search
	// (<= 1) at any setting; see the package comment.
	Parallelism int
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status    Status
	X         []float64 // best integer solution found (nil when none)
	Objective float64   // objective of X
	Bound     float64   // best proved lower bound on the optimum
	Nodes     int       // number of branch-and-bound nodes processed
	LPIters   int       // simplex iterations summed over all relaxations
}

// branch is one bound change relative to the root problem.
type branch struct {
	v     int
	sense lp.Sense // LE (x <= k) or GE (x >= k)
	bound float64
}

// Relaxation state of an open node, guarded by search.mu.
const (
	nodeUnsolved int8 = iota // no one has started this node's relaxation
	nodeClaimed              // a goroutine is solving it right now
	nodeSolved               // sol/err hold the finished relaxation
)

// node is a live branch-and-bound node.
type node struct {
	bounds []branch
	lb     float64 // parent LP bound (priority)
	depth  int

	// Speculative-prefetch slots, guarded by search.mu. The relaxation is a
	// pure function of bounds, so a prefetched result stays valid no matter
	// when the coordinator consumes it.
	state int8
	sol   *lp.Solution
	err   error
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].lb < h[j].lb {
		return true
	}
	if h[i].lb > h[j].lb {
		return false
	}
	return h[i].depth > h[j].depth // deeper first on tie: plunge
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Solve runs branch and bound and returns the best result found.
func (p *Problem) Solve(opt Options) *Result {
	//rahtm:allow(ctxpoll): compatibility wrapper; the root context is the documented default for the non-Ctx API
	return p.SolveCtx(context.Background(), opt)
}

// SolveCtx runs branch and bound under a context. When ctx is canceled or
// its deadline expires the search stops at the next node boundary (and
// in-flight LP relaxations abort at their next pivot poll); the best
// incumbent found so far is returned, exactly as for an expired Deadline.
// Callers that must distinguish hard cancellation inspect ctx.Err()
// themselves.
func (p *Problem) SolveCtx(ctx context.Context, opt Options) *Result {
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}

	res := &Result{Status: Unknown, Bound: math.Inf(-1)}
	scope := telemetry.ScopeFrom(ctx)
	defer func() {
		scope.CounterOr(telemetry.CtrMILPSolves, ctrMILPSolves).Inc()
		scope.CounterOr(telemetry.CtrMILPNodes, ctrMILPNodes).Add(int64(res.Nodes))
	}()
	s := &search{
		p:      p,
		ctx:    ctx,
		lpOpts: opt.LPOptions,
		tol:    tol,
		open:   &nodeHeap{{lb: math.Inf(-1)}},
		incObj: math.Inf(1),
	}
	s.cond = sync.NewCond(&s.mu)
	heap.Init(s.open)
	if opt.Incumbent != nil && p.integral(opt.Incumbent, tol) && p.LP.Feasible(opt.Incumbent, 1e-6) {
		res.X = append([]float64(nil), opt.Incumbent...)
		s.incObj = p.LP.Value(opt.Incumbent)
		res.Objective = s.incObj
		res.Status = Feasible
	}
	for w := 1; w < opt.Parallelism; w++ {
		s.wg.Add(1)
		go s.prefetch()
	}

	deadline := opt.Deadline
	checkDeadline := func() bool {
		return !deadline.IsZero() && time.Now().After(deadline)
	}

	// The coordinator below IS the sequential algorithm: it alone pops nodes,
	// prunes, updates the incumbent and branches, so the search trajectory —
	// and with it every Result field — does not depend on Parallelism.
	// Prefetch workers only fill the sol/err slots of nodes still in the heap.
	s.mu.Lock()
	for s.open.Len() > 0 {
		if res.Nodes >= maxNodes || checkDeadline() || ctx.Err() != nil {
			break
		}
		nd := heap.Pop(s.open).(*node)
		if nd.lb >= pruneThreshold(s.incObj, tol) {
			continue // pruned by bound
		}
		res.Nodes++

		var sol *lp.Solution
		var err error
		switch nd.state {
		case nodeUnsolved:
			nd.state = nodeClaimed
			s.mu.Unlock()
			sol, err = p.relax(ctx, nd, opt.LPOptions)
			s.mu.Lock()
			nd.sol, nd.err, nd.state = sol, err, nodeSolved
		case nodeClaimed:
			// A worker is mid-solve; its result arrives with a broadcast.
			//rahtm:allow(ctxpoll): bounded wait — the claiming worker's LP solve polls ctx and always marks the node solved
			for nd.state != nodeSolved {
				s.cond.Wait()
			}
			sol, err = nd.sol, nd.err
		case nodeSolved:
			sol, err = nd.sol, nd.err
		}
		if errors.Is(err, errPrefetchPanic) {
			break // a prefetch worker panicked; re-raised below once joined
		}
		if sol != nil {
			// Counts only consumed relaxations — identical to the sequential
			// search; speculative solves that get pruned stay invisible.
			res.LPIters += sol.Iters
		}
		if err != nil {
			continue // canceled mid-relaxation; the loop head exits next
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// An unbounded relaxation at the root means the MILP is
			// unbounded or the model is missing bounds; give up on this
			// subtree (RAHTM models are always bounded).
			continue
		case lp.IterLimit:
			continue
		}
		if sol.Objective >= pruneThreshold(s.incObj, tol) {
			continue
		}
		fracVar, fracVal := p.mostFractional(sol.X, tol)
		if fracVar < 0 {
			// Integer feasible: new incumbent, published under the lock so
			// workers stop speculating on now-pruned nodes.
			if sol.Objective < s.incObj {
				s.incObj = sol.Objective
				res.X = append(res.X[:0], sol.X...)
				res.Objective = s.incObj
				if res.Status == Unknown {
					res.Status = Feasible
				}
			}
			continue
		}
		// Branch on the most fractional variable; explore the side nearer
		// the relaxation value first (heap tie-break handles plunging).
		floorB := math.Floor(fracVal)
		down := &node{
			bounds: appendBranch(nd.bounds, branch{fracVar, lp.LE, floorB}),
			lb:     sol.Objective,
			depth:  nd.depth + 1,
		}
		up := &node{
			bounds: appendBranch(nd.bounds, branch{fracVar, lp.GE, floorB + 1}),
			lb:     sol.Objective,
			depth:  nd.depth + 1,
		}
		heap.Push(s.open, down)
		heap.Push(s.open, up)
		s.cond.Broadcast() // fresh work for prefetch workers
	}
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.panics.Rethrow()

	// Lower bound: min over remaining open nodes and the incumbent.
	bound := s.incObj
	for _, nd := range *s.open {
		if nd.lb < bound {
			bound = nd.lb
		}
	}
	res.Bound = bound
	// Optimality and infeasibility may only be claimed when the search tree
	// was actually exhausted, not cut short by cancellation.
	if ctx.Err() == nil {
		if res.Status == Feasible && s.open.Len() == 0 && res.Nodes < maxNodes {
			res.Status = Optimal
			res.Bound = s.incObj
		}
		if res.Status == Unknown && s.open.Len() == 0 && res.Nodes > 0 {
			res.Status = Infeasible
		}
	}
	return res
}

// search is the state shared between the coordinator and the prefetch
// workers. Everything behind mu; cond signals both "new open nodes" (to
// workers) and "node solved" (to a coordinator waiting on a claimed node).
type search struct {
	p      *Problem
	ctx    context.Context
	lpOpts lp.Options
	tol    float64

	mu      sync.Mutex
	cond    *sync.Cond
	open    *nodeHeap
	incObj  float64 // published incumbent objective (+Inf before the first)
	stopped bool
	wg      sync.WaitGroup
	// panics keeps the first prefetch-worker panic for the coordinator to
	// re-raise after the workers have joined.
	panics workerpanic.Slot
}

// errPrefetchPanic marks a node whose relaxation panicked on a prefetch
// worker; the coordinator stops the search when it consumes one.
var errPrefetchPanic = errors.New("milp: prefetch worker panicked")

// prefetchRelax is the relaxation the prefetch workers run. It is a
// variable only so tests can inject a worker panic.
var prefetchRelax = (*Problem).relax

// prefetch is the worker loop: claim the best unsolved open node that the
// incumbent bound cannot prune, solve its relaxation outside the lock, store
// the result on the node and broadcast. A panic ends the worker and is kept
// in s.panics.
func (s *search) prefetch() {
	defer s.wg.Done()
	defer s.panics.Catch()
	s.mu.Lock()
	for {
		if s.stopped {
			s.mu.Unlock()
			return
		}
		nd := s.pickUnsolved()
		if nd == nil {
			s.cond.Wait()
			continue
		}
		nd.state = nodeClaimed
		s.mu.Unlock()
		sol, err := s.relaxClaimed(nd)
		s.mu.Lock()
		nd.sol, nd.err, nd.state = sol, err, nodeSolved
		s.cond.Broadcast()
	}
}

// relaxClaimed solves a node this worker claimed, without the lock. If the
// relaxation panics, the node is marked solved with errPrefetchPanic — so a
// coordinator waiting on it wakes up — before the panic unwinds on to
// prefetch's Catch.
func (s *search) relaxClaimed(nd *node) (*lp.Solution, error) {
	finished := false
	defer func() {
		if !finished {
			s.mu.Lock()
			nd.err, nd.state = errPrefetchPanic, nodeSolved
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}()
	sol, err := prefetchRelax(s.p, s.ctx, nd, s.lpOpts)
	finished = true
	return sol, err
}

// pickUnsolved returns an unsolved open node worth prefetching, or nil. The
// heap array is scanned in index order — element 0 is the true best bound and
// the rest are heap-ordered, which is close enough to best-first for a
// speculation heuristic (correctness never depends on the choice).
func (s *search) pickUnsolved() *node {
	thr := pruneThreshold(s.incObj, s.tol)
	for _, nd := range *s.open {
		if nd.state == nodeUnsolved && nd.lb < thr {
			return nd
		}
	}
	return nil
}

// relax clones the root LP, applies the node's branching bounds and solves
// the relaxation. The result depends only on nd.bounds — never on the
// incumbent — which is what makes speculative prefetching safe. Clone only
// reads the shared root LP, so concurrent relaxations do not race.
func (p *Problem) relax(ctx context.Context, nd *node, opt lp.Options) (*lp.Solution, error) {
	rel := p.LP.Clone()
	for _, b := range nd.bounds {
		rel.AddConstraint([]lp.Term{{Var: b.v, Coef: 1}}, b.sense, b.bound)
	}
	return rel.SolveCtx(ctx, opt)
}

// pruneThreshold is the objective value at or above which a node cannot
// improve the incumbent: incObj - tol*(1+|incObj|), kept at +Inf while no
// incumbent exists (the subtraction would otherwise yield NaN).
func pruneThreshold(incObj, tol float64) float64 {
	if math.IsInf(incObj, 1) {
		return incObj
	}
	return incObj - tol*(1+math.Abs(incObj))
}

func appendBranch(bs []branch, b branch) []branch {
	out := make([]branch, len(bs)+1)
	copy(out, bs)
	out[len(bs)] = b
	return out
}

// mostFractional returns the integer-marked variable whose value is furthest
// from an integer, or (-1, 0) when all are integral within tol.
func (p *Problem) mostFractional(x []float64, tol float64) (int, float64) {
	bestVar := -1
	bestDist := tol
	bestVal := 0.0
	for _, v := range p.intVars {
		if v >= len(x) {
			continue
		}
		f := x[v] - math.Floor(x[v])
		dist := math.Min(f, 1-f)
		if dist > bestDist {
			bestDist = dist
			bestVar = v
			bestVal = x[v]
		}
	}
	return bestVar, bestVal
}

func (p *Problem) integral(x []float64, tol float64) bool {
	v, _ := p.mostFractional(x, tol)
	return v < 0
}
