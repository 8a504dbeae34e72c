// Package merge implements Phase 3 of RAHTM: bottom-up merging of mapped
// sub-blocks with rotation/reorientation search and top-N candidate pruning.
//
// Each block carries a beam of candidate internal mappings. Merging the
// children of one hierarchy node proceeds incrementally: children are
// ordered by decreasing average pairwise MCL (blocks with heavy interactions
// get placed while the search is still flexible), and at every step all
// combinations of surviving partial configurations, child candidates, and
// child orientations (the hyperoctahedral symmetries of the child box) are
// scored by the maximum channel load of the traffic merged so far; only the
// best N (the paper uses N = 64) survive.
//
// # Incremental, bound-pruned MCL evaluation
//
// Scoring a candidate placement does not recompute the merged channel loads
// from scratch. A candidate perturbs only the channels its own flows
// traverse, so the scorer accumulates the candidate's contribution — the
// incoming child's internal loads plus its cross flows to the already-placed
// children — into a sparse routing.DeltaVec and scores it against the partial
// configuration's dense load vector as
//
//	mcl = max(state.mcl, max over touched ch of state.loads[ch] + delta[ch])
//
// which is exact (bit-for-bit, not approximately) because deltas are
// non-negative: untouched channels cannot exceed the state's maximum. The
// child-internal loads are themselves computed once per (candidate,
// orientation) pair at the child's pinned cube position and translated to
// any other position by a constant channel offset — inside a 2-ary merge
// cube a child box never spans half a wrapped parent dimension, so its
// internal minimal routes neither wrap nor pick up direction ties, making
// the load pattern translation-equivariant.
//
// The DeltaVec keeps that score as a running peak, which never decreases as
// deposits arrive and ends at the exact score. Both scoring loops use it to
// stop early. A merge step scores its (candidate, orientation) groups in
// fixed rounds of roundGroups; before each round the cutoff U is the
// BeamWidth-th smallest score fully computed in earlier rounds, and a combo
// whose peak rises strictly above U is abandoned — it could never have
// entered the beam. mergeOrder abandons an orientation pair once its peak
// reaches the pair's best score so far. DESIGN.md §16 gives the argument;
// TestMergeDeltaByteIdentical pins the beams byte-identical to the unbounded
// dense reference scorer in oracle_test.go.
package merge

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rahtm/internal/graph"
	"rahtm/internal/obs"
	"rahtm/internal/routing"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
	"rahtm/internal/workerpanic"
)

// Beam-search counters on the process-wide registry. The scoring loops
// accumulate plain locals and flush once per merge / ordering pass.
var (
	ctrBeamCandidates    = telemetry.Default.Counter(telemetry.CtrBeamCandidates)
	ctrBeamKept          = telemetry.Default.Counter(telemetry.CtrBeamKept)
	ctrBeamAbandoned     = telemetry.Default.Counter(telemetry.CtrBeamAbandoned)
	ctrSymmetryEvals     = telemetry.Default.Counter(telemetry.CtrSymmetryEvals)
	ctrSymmetryAbandoned = telemetry.Default.Counter(telemetry.CtrSymmetryAbandoned)
	ctrDeltaHits         = telemetry.Default.Counter(telemetry.CtrDeltaHits)
)

// roundGroups is how many (candidate, orientation) groups a merge step
// scores between two updates of its cutoff. It is a constant, not a
// function of Parallelism, so which combos are abandoned — and hence the
// work counters — never depend on the worker count. Smaller rounds tighten
// the cutoff sooner; larger ones give workers more to share.
const roundGroups = 4

// Orientation is a signed dimension permutation of a box: output coordinate
// d reads input coordinate Perm[d], reversed when Flip[d] is set. Only
// shape-preserving orientations are valid for a given box.
type Orientation struct {
	Perm []int
	Flip []bool
}

// Orientations enumerates every shape-preserving orientation of a box,
// deterministically. Flips of 1-wide dimensions are identities and are not
// enumerated.
func Orientations(shape []int) []Orientation {
	nd := len(shape)
	var out []Orientation
	perm := make([]int, nd)
	used := make([]bool, nd)
	var flips func(p []int, d int, f []bool)
	flips = func(p []int, d int, f []bool) {
		if d == nd {
			out = append(out, Orientation{
				Perm: append([]int(nil), p...),
				Flip: append([]bool(nil), f...),
			})
			return
		}
		f[d] = false
		flips(p, d+1, f)
		if shape[d] > 1 {
			f[d] = true
			flips(p, d+1, f)
			f[d] = false
		}
	}
	var perms func(d int)
	perms = func(d int) {
		if d == nd {
			flips(perm, 0, make([]bool, nd))
			return
		}
		if shape[d] == 1 {
			// Permuting 1-wide dimensions among themselves never changes
			// the action; pin them to avoid duplicate orientations.
			if used[d] {
				return
			}
			used[d] = true
			perm[d] = d
			perms(d + 1)
			used[d] = false
			return
		}
		for v := 0; v < nd; v++ {
			if used[v] || shape[v] != shape[d] {
				continue
			}
			used[v] = true
			perm[d] = v
			perms(d + 1)
			used[v] = false
		}
	}
	perms(0)
	return out
}

// applyFast is Apply without heap allocations for boxes of at most 8
// dimensions — the merge scorers call it once per task per candidate.
func (o Orientation) applyFast(shape []int, pos int) int {
	nd := len(shape)
	if nd > 8 {
		return o.Apply(shape, pos)
	}
	var x, y [8]int
	for d := nd - 1; d >= 0; d-- {
		x[d] = pos % shape[d]
		pos /= shape[d]
	}
	for d := 0; d < nd; d++ {
		v := x[o.Perm[d]]
		if o.Flip[d] {
			v = shape[d] - 1 - v
		}
		y[d] = v
	}
	out := 0
	for d := 0; d < nd; d++ {
		out = out*shape[d] + y[d]
	}
	return out
}

// Apply transforms a row-major position within a box of the given shape.
func (o Orientation) Apply(shape []int, pos int) int {
	nd := len(shape)
	// Decode row-major (last dim fastest).
	x := make([]int, nd)
	for d := nd - 1; d >= 0; d-- {
		x[d] = pos % shape[d]
		pos /= shape[d]
	}
	// Transform.
	y := make([]int, nd)
	for d := 0; d < nd; d++ {
		v := x[o.Perm[d]]
		if o.Flip[d] {
			v = shape[d] - 1 - v
		}
		y[d] = v
	}
	// Encode.
	out := 0
	for d := 0; d < nd; d++ {
		out = out*shape[d] + y[d]
	}
	return out
}

// Candidate is one internal mapping of a block, with its MCL estimate.
type Candidate struct {
	// Local maps task index (into Block.Tasks) to a row-major position in
	// Block.Shape.
	Local topology.Mapping
	// MCL is the maximum channel load of the block-internal traffic under
	// the uniform minimal-path model.
	MCL float64
}

// Block is a mapped sub-box of the machine carrying a beam of candidates,
// best first.
type Block struct {
	Tasks      []int // global task ids, ascending
	Shape      []int // box extent per dimension
	Candidates []Candidate
	// Degraded is set when the merge ran out of time (context deadline)
	// and completed greedily instead of searching: the candidates are
	// valid but best-effort.
	Degraded bool
}

// NewLeafBlock wraps a Phase 2 leaf solution as a single-candidate block.
// tasks[i] is the global id of local task i; local[i] its cube position.
func NewLeafBlock(tasks []int, shape []int, local topology.Mapping, mcl float64) *Block {
	return &Block{
		Tasks:      append([]int(nil), tasks...),
		Shape:      append([]int(nil), shape...),
		Candidates: []Candidate{{Local: local.Clone(), MCL: mcl}},
	}
}

// Config tunes the merge search. Zero values select the paper's defaults.
type Config struct {
	// BeamWidth is the number of merged candidates retained (paper: 64).
	BeamWidth int
	// ChildCandidates caps how many candidates of an incoming child are
	// combined with the beam (0 = 4).
	ChildCandidates int
	// Torus evaluates the merged block with wraparound links; set at the
	// root where the block is the whole machine.
	Torus bool
	// Topology, when non-nil, overrides the evaluation topology of the
	// merged block (its dimensions must equal the parent block shape).
	// The root merge passes the real machine here so per-dimension wrap
	// flags are exact.
	Topology *topology.Torus
	// MaxOrientations caps how many child orientations are explored per
	// merge step (0 = 384, the full hyperoctahedral group of a 4-D cube).
	// Larger groups are subsampled with a deterministic stride that always
	// keeps the identity.
	MaxOrientations int
	// MaxPairEvals caps the orientation-pair evaluations used for merge
	// ordering (0 = 4096); ordering falls back to coarser sampling above.
	MaxPairEvals int
	// Reposition additionally searches over the free cube positions for
	// each incoming child instead of honoring its Phase 2 pseudo-pin —
	// the extra placement freedom §III-D alludes to. It multiplies the
	// search space by up to the cube size.
	Reposition bool
	// Parallelism bounds the worker goroutines scoring merge candidates
	// (0 = GOMAXPROCS).
	Parallelism int
	// Level tags the BeamRound events this merge sends to the observer its
	// context carries (obs.NewContext) with the hierarchy depth.
	Level int
}

func (c Config) withDefaults() Config {
	if c.BeamWidth <= 0 {
		c.BeamWidth = 64
	}
	if c.ChildCandidates <= 0 {
		c.ChildCandidates = 4
	}
	if c.MaxOrientations <= 0 {
		c.MaxOrientations = 384
	}
	if c.MaxPairEvals <= 0 {
		c.MaxPairEvals = 4096
	}
	return c
}

// Merge combines child blocks arranged on a {1,2}^n cube into their parent
// block. childPos[i] is the pinned cube position of child i (row-major over
// cubeShape) from Phase 2. g is the global task-level communication graph.
func Merge(g *graph.Comm, children []*Block, cubeShape []int, childPos []int, cfg Config) (*Block, error) {
	//rahtm:allow(ctxpoll): compatibility wrapper; the root context is the documented default for the non-Ctx API
	return MergeCtx(context.Background(), g, children, cubeShape, childPos, cfg)
}

// MergeCtx is Merge under a context. Hard cancellation aborts the beam
// search (workers bail at their next poll) and returns ctx.Err(); an
// expired deadline stops searching and completes the remaining children
// greedily — pinned positions, first candidate, identity orientation — so a
// valid merged block is still produced, flagged Degraded.
func MergeCtx(ctx context.Context, g *graph.Comm, children []*Block, cubeShape []int, childPos []int, cfg Config) (*Block, error) {
	if err := hardCancel(ctx); err != nil {
		return nil, err
	}
	m, err := newMerger(ctx, g, children, cubeShape, childPos, cfg)
	if err != nil {
		return nil, err
	}
	return m.run()
}

// newMerger validates a merge and precomputes everything its steps share.
func newMerger(ctx context.Context, g *graph.Comm, children []*Block, cubeShape []int, childPos []int, cfg Config) (*merger, error) {
	cfg = cfg.withDefaults()
	if len(children) == 0 {
		return nil, fmt.Errorf("merge: no children")
	}
	if len(childPos) != len(children) {
		return nil, fmt.Errorf("merge: %d children, %d positions", len(children), len(childPos))
	}
	nd := len(cubeShape)
	childShape := children[0].Shape
	for i, c := range children {
		if len(c.Shape) != nd {
			return nil, fmt.Errorf("merge: child %d dimensionality mismatch", i)
		}
		for d := range childShape {
			if c.Shape[d] != childShape[d] {
				return nil, fmt.Errorf("merge: child %d shape %v differs from %v", i, c.Shape, childShape)
			}
		}
		if len(c.Candidates) == 0 {
			return nil, fmt.Errorf("merge: child %d has no candidates", i)
		}
	}
	cubeSize := 1
	parentShape := make([]int, nd)
	for d := 0; d < nd; d++ {
		if cubeShape[d] != 1 && cubeShape[d] != 2 {
			return nil, fmt.Errorf("merge: cube shape %v is not 2-ary", cubeShape)
		}
		cubeSize *= cubeShape[d]
		parentShape[d] = cubeShape[d] * childShape[d]
	}
	if len(children) != cubeSize {
		return nil, fmt.Errorf("merge: %d children for cube of %d positions", len(children), cubeSize)
	}
	seen := make([]bool, cubeSize)
	for i, p := range childPos {
		if p < 0 || p >= cubeSize || seen[p] {
			return nil, fmt.Errorf("merge: bad child position %d for child %d", p, i)
		}
		seen[p] = true
	}
	if cfg.Reposition && cubeSize > 64 {
		return nil, fmt.Errorf("merge: repositioning supports cubes up to 64 positions, have %d", cubeSize)
	}

	m := &merger{
		g:          g,
		children:   children,
		childPos:   childPos,
		cubeShape:  cubeShape,
		childShape: childShape,
		cfg:        cfg,
	}
	switch {
	case cfg.Topology != nil:
		for d := 0; d < nd; d++ {
			if cfg.Topology.Dim(d) != parentShape[d] {
				return nil, fmt.Errorf("merge: override topology %v does not match parent shape %v",
					cfg.Topology, parentShape)
			}
		}
		m.parent = cfg.Topology
	case cfg.Torus:
		m.parent = topology.NewTorus(parentShape...)
	default:
		m.parent = topology.NewMesh(parentShape...)
	}
	m.orients = Orientations(childShape)
	if len(m.orients) > cfg.MaxOrientations {
		// Deterministic stride subsample keeping the identity (index 0).
		stride := (len(m.orients) + cfg.MaxOrientations - 1) / cfg.MaxOrientations
		var kept []Orientation
		for i := 0; i < len(m.orients); i += stride {
			kept = append(kept, m.orients[i])
		}
		m.orients = kept
	}
	m.origins = make([][]int, cubeSize)
	m.originRank = make([]int, cubeSize)
	for p := 0; p < cubeSize; p++ {
		m.origins[p] = cubeOrigin(cubeShape, childShape, p)
		m.originRank[p] = m.parent.RankOf(m.origins[p])
	}
	m.ctx = ctx
	m.done = ctx.Done()
	m.obs = obs.FromContext(ctx)
	m.scope = telemetry.ScopeFrom(ctx)
	m.alg = routing.MinimalAdaptive{}.WithScope(m.scope)
	m.disp = m.alg.DispTable(m.parent)
	m.workers = cfg.Parallelism
	if m.workers <= 0 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	m.initAdjacency()
	return m, nil
}

// hardCancel returns ctx's error when it was canceled outright. Deadline
// expiry returns nil: the merge degrades to a greedy completion instead of
// failing.
func hardCancel(ctx context.Context) error {
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// expired reports whether ctx's deadline has passed.
func expired(ctx context.Context) bool {
	return errors.Is(ctx.Err(), context.DeadlineExceeded)
}

// cubeOrigin returns the parent-box origin of the child at cube position p.
func cubeOrigin(cubeShape, childShape []int, p int) []int {
	nd := len(cubeShape)
	o := make([]int, nd)
	for d := nd - 1; d >= 0; d-- {
		o[d] = (p % cubeShape[d]) * childShape[d]
		p /= cubeShape[d]
	}
	return o
}

type merger struct {
	g          *graph.Comm
	children   []*Block
	childPos   []int
	cubeShape  []int
	childShape []int
	parent     *topology.Torus
	orients    []Orientation
	origins    [][]int // cube position -> parent origin coords
	originRank []int   // cube position -> parent rank of the origin
	cfg        Config
	ctx        context.Context
	done       <-chan struct{} // ctx.Done(), polled inside worker loops
	obs        obs.Observer
	// scope is the request scope carried by ctx (nil outside the daemon);
	// alg is the shared evaluator, scoped so every scorer's stencil
	// traffic is attributed to the owning request.
	scope *telemetry.Scope
	alg   routing.MinimalAdaptive
	// disp is the parent's displacement deposit table, built once through
	// alg: every sparse scorer routes its flows through it. Read-only.
	disp *routing.DispTable
	// workers is the resolved Parallelism.
	workers int

	// Per-task adjacency of the merged tasks. On a frozen graph these alias
	// the CSR rows directly; on a builder graph they are compiled once here
	// so the scorers never rebuild (or re-sort) neighbor lists per
	// evaluation. Read-only either way.
	nbr  [][]int32
	nvol [][]float64
	// taskChild/taskLocal invert the children's task lists: global task id
	// -> owning child index and local index within that child (-1 for tasks
	// outside this merge). The scorers use them to extract cross-child flow
	// lists once per step instead of re-marking task sets per evaluation.
	taskChild []int32
	taskLocal []int32
	// scratch pools flowScratch instances sized to g.N() for eachFlow.
	scratch sync.Pool
}

// flowScratch is the per-call working set of eachFlow: task -> parent
// position plus membership marks, validated by generation counters so the
// arrays never need clearing between calls.
type flowScratch struct {
	pos      []int
	inA, inB []int64
	gen      int64
}

// initAdjacency caches neighbor/volume lists for every task of the merge.
func (m *merger) initAdjacency() {
	n := m.g.N()
	m.nbr = make([][]int32, n)
	m.nvol = make([][]float64, n)
	m.taskChild = make([]int32, n)
	m.taskLocal = make([]int32, n)
	for t := range m.taskChild {
		m.taskChild[t] = -1
		m.taskLocal[t] = -1
	}
	for ci, c := range m.children {
		for i, t := range c.Tasks {
			m.taskChild[t] = int32(ci)
			m.taskLocal[t] = int32(i)
		}
	}
	for _, c := range m.children {
		for _, t := range c.Tasks {
			if m.nbr[t] != nil {
				continue
			}
			//rahtm:allow(csralias): nbr/nvol deliberately cache CSR row aliases for zero-copy adjacency scans; the rows are never written and the frozen graph outlives the merger (TestMergeDeltaByteIdentical covers the read-only contract)
			m.nbr[t], m.nvol[t] = m.g.Edges(t)
		}
	}
	m.scratch.New = func() interface{} {
		return &flowScratch{
			pos: make([]int, n),
			inA: make([]int64, n),
			inB: make([]int64, n),
		}
	}
}

// taskParentPos computes the parent-box rank of a child's task under a
// candidate and orientation, with the child block at cube position cubePos.
func (m *merger) taskParentPos(cand Candidate, o Orientation, cubePos, taskIdx int) int {
	local := o.applyFast(m.childShape, cand.Local[taskIdx])
	// Decode local within childShape, offset by the child's origin.
	origin := m.origins[cubePos]
	nd := len(m.childShape)
	if nd <= 8 {
		var buf [8]int
		coord := buf[:nd]
		for d := nd - 1; d >= 0; d-- {
			coord[d] = origin[d] + local%m.childShape[d]
			local /= m.childShape[d]
		}
		return m.parent.RankOf(coord)
	}
	coord := make([]int, nd)
	for d := nd - 1; d >= 0; d-- {
		coord[d] = origin[d] + local%m.childShape[d]
		local /= m.childShape[d]
	}
	return m.parent.RankOf(coord)
}

// placementAt materializes parent positions for all tasks of a child placed
// at the given cube position.
func (m *merger) placementAt(child int, cand Candidate, o Orientation, cubePos int) []int {
	out := make([]int, len(m.children[child].Tasks))
	for i := range out {
		out[i] = m.taskParentPos(cand, o, cubePos, i)
	}
	return out
}

// placement materializes parent positions using the child's pinned position.
func (m *merger) placement(child int, cand Candidate, o Orientation) []int {
	return m.placementAt(child, cand, o, m.childPos[child])
}

// eachFlow calls fn(src, dst, vol) with the parent positions of every
// graph flow between the two task->position maps (a may equal b for
// internal flows), in a fixed order: flows out of a's tasks, then flows
// from b's remaining tasks into a. includeInternal keeps flows out of a
// whose destination a and b both hold (all of them when a == b). Both
// sinks — dense AddLoads on the greedy completion path, the sparse
// DispTable.AddDelta in the scorers — walk flows through here in this
// order, and deposit each flow's bits in the same order, so their
// per-channel totals agree bit for bit (see routing.DispTable).
func (m *merger) eachFlow(aTasks []int, aPos []int, bTasks []int, bPos []int, includeInternal bool, fn func(src, dst int, vol float64)) {
	fs := m.scratch.Get().(*flowScratch)
	fs.gen++
	gen := fs.gen
	for i, t := range aTasks {
		fs.pos[t] = aPos[i]
		fs.inA[t] = gen
	}
	for i, t := range bTasks {
		fs.pos[t] = bPos[i]
		fs.inB[t] = gen
	}
	for _, t := range aTasks {
		for ni, d := range m.nbr[t] {
			if fs.inB[d] != gen {
				continue
			}
			if !includeInternal && fs.inA[d] == gen {
				continue
			}
			fn(fs.pos[t], fs.pos[d], m.nvol[t][ni])
		}
	}
	for _, t := range bTasks {
		if fs.inA[t] == gen {
			continue
		}
		for ni, d := range m.nbr[t] {
			if fs.inA[d] != gen {
				continue
			}
			fn(fs.pos[t], fs.pos[d], m.nvol[t][ni])
		}
	}
	m.scratch.Put(fs)
}

// addInternalDelta routes the flows among tasks, placed at pos, into dv.
func (m *merger) addInternalDelta(tasks, pos []int, dv *routing.DeltaVec) {
	m.eachFlow(tasks, pos, tasks, pos, true, func(src, dst int, vol float64) {
		m.disp.AddDelta(src, dst, vol, dv)
	})
}

// parallel calls fn(w, i) for every i in [0, n) on up to workers goroutines
// and returns once all calls have. Workers pull indices from a shared
// counter; w identifies the calling worker so fn can use per-worker scratch.
// Results must depend only on i, never on which worker ran it. A panic in fn
// on a worker goroutine is re-raised on the caller once every worker has
// returned (see workerpanic).
func parallel(n, workers int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panics workerpanic.Slot
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer panics.Catch()
			for i := int(next.Add(1) - 1); i < n && !panics.Caught(); i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	panics.Rethrow()
}

// canceled polls the merge context without blocking.
func (m *merger) canceled() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// orderPair is one unordered child pair of the merge-order ranking.
type orderPair struct{ i, j int }

// pairEdge is one flow between the two children of an orderPair.
type pairEdge struct {
	ai, bi int32 // local task indices within child i / child j
	fromJ  bool  // the flow runs j -> i when set
	vol    float64
}

// orderInputs is what the merge-order pair evaluations read: per (child,
// sampled orientation) pinned placements, internal-load snapshots and the
// snapshots' peak loads, and per child pair its cross flows.
type orderInputs struct {
	ko    int // orientations sampled per child
	pl    [][][]int
	snaps [][]routing.Snapshot
	peaks [][]float64
	pairs []orderPair
	edges [][]pairEdge
}

// orderSetup builds the merge-order inputs. Each child's internal loads are
// routed once per sampled orientation into a snapshot shared by every pair
// the child takes part in; the cross flows of each pair are extracted in a
// single graph pass. Under cancellation some placements stay nil.
func (m *merger) orderSetup() *orderInputs {
	n := len(m.children)
	ko := len(m.orients)
	for ko > 1 && ko*ko > m.cfg.MaxPairEvals {
		ko--
	}
	in := &orderInputs{ko: ko, pl: make([][][]int, n), snaps: make([][]routing.Snapshot, n), peaks: make([][]float64, n)}
	for i := range in.pl {
		in.pl[i] = make([][]int, ko)
		in.snaps[i] = make([]routing.Snapshot, ko)
		in.peaks[i] = make([]float64, ko)
	}
	dvs := make([]*routing.DeltaVec, m.workers)
	parallel(n*ko, m.workers, func(w, u int) {
		if m.canceled() {
			return // ordering becomes partial; run() handles the context
		}
		if dvs[w] == nil {
			dvs[w] = routing.NewDeltaVec(m.parent.NumChannels())
		}
		dv := dvs[w]
		i, oi := u/ko, u%ko
		p := m.placement(i, m.children[i].Candidates[0], m.orients[oi])
		dv.Reset()
		m.addInternalDelta(m.children[i].Tasks, p, dv)
		in.pl[i][oi] = p
		in.snaps[i][oi] = dv.Snapshot()
		in.peaks[i][oi] = dv.Peak()
	})

	pairIdx := make([][]int, n)
	for i := 0; i < n; i++ {
		pairIdx[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairIdx[i][j] = len(in.pairs)
			in.pairs = append(in.pairs, orderPair{i, j})
		}
	}
	in.edges = make([][]pairEdge, len(in.pairs))
	for t := 0; t < m.g.N(); t++ {
		ci := m.taskChild[t]
		if ci < 0 {
			continue
		}
		for ni, d := range m.nbr[t] {
			cj := m.taskChild[d]
			if cj < 0 || cj == ci {
				continue
			}
			vol := m.nvol[t][ni]
			if ci < cj {
				pi := pairIdx[ci][cj]
				in.edges[pi] = append(in.edges[pi], pairEdge{ai: m.taskLocal[t], bi: m.taskLocal[d], vol: vol})
			} else {
				pi := pairIdx[cj][ci]
				in.edges[pi] = append(in.edges[pi], pairEdge{ai: m.taskLocal[d], bi: m.taskLocal[t], fromJ: true, vol: vol})
			}
		}
	}
	return in
}

// rankChildren orders children by decreasing average best-pair MCL, given
// best[pi] for every pair (-1 for a pair never evaluated).
func (m *merger) rankChildren(in *orderInputs, best []float64) []int {
	n := len(m.children)
	avg := make([]float64, n)
	for pi, p := range in.pairs {
		avg[p.i] += best[pi]
		avg[p.j] += best[pi]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return avg[order[a]] > avg[order[b]] })
	return order
}

// mergeOrder ranks children by decreasing average best-pair MCL. A pair
// evaluation replays two internal snapshots and routes only the pair's cross
// flows, sparsely, and is abandoned as soon as its running peak reaches the
// pair's best score so far: acceptance is strict (mcl < best), so such an
// orientation pair could not have changed best and the ranking is exact.
// An orientation pair is abandoned before either snapshot is replayed when
// one snapshot's own peak already reaches the best: deposits are
// non-negative, so no replayed channel falls below either snapshot's value
// and the replay would stop at the same check.
func (m *merger) mergeOrder() []int {
	if len(m.children) == 1 {
		return []int{0}
	}
	in := m.orderSetup()
	ko := in.ko
	best := make([]float64, len(in.pairs))
	type orderWorker struct {
		dv               *routing.DeltaVec
		evals, abandoned int64
	}
	ws := make([]orderWorker, m.workers)
	parallel(len(in.pairs), m.workers, func(w, pi int) {
		if m.canceled() {
			return // ordering becomes partial; run() handles the context
		}
		ow := &ws[w]
		if ow.dv == nil {
			ow.dv = routing.NewDeltaVec(m.parent.NumChannels())
		}
		dv, disp := ow.dv, m.disp
		i, j := in.pairs[pi].i, in.pairs[pi].j
		bst := math.Inf(1)
		var evals, abandoned int64 // per pair, so workers do not share cache lines per eval
		for oi := 0; oi < ko; oi++ {
			pli := in.pl[i][oi]
			if pli == nil {
				continue // setup was cut short by cancellation
			}
		orient:
			for oj := 0; oj < ko; oj++ {
				plj := in.pl[j][oj]
				if plj == nil {
					continue
				}
				evals++
				if max(in.peaks[i][oi], in.peaks[j][oj]) >= bst {
					abandoned++
					continue
				}
				dv.Reset()
				dv.AddSnapshot(in.snaps[i][oi], 0)
				dv.AddSnapshot(in.snaps[j][oj], 0)
				if dv.Peak() >= bst {
					abandoned++
					continue
				}
				for _, e := range in.edges[pi] {
					if e.fromJ {
						disp.AddDelta(plj[e.bi], pli[e.ai], e.vol, dv)
					} else {
						disp.AddDelta(pli[e.ai], plj[e.bi], e.vol, dv)
					}
					if dv.Peak() >= bst {
						abandoned++
						continue orient
					}
				}
				bst = dv.Peak()
			}
		}
		if math.IsInf(bst, 1) {
			bst = -1 // nothing evaluated (cancellation)
		}
		best[pi] = bst
		ow.evals += evals
		ow.abandoned += abandoned
	})
	var evals, abandoned int64
	for _, ow := range ws {
		evals += ow.evals
		abandoned += ow.abandoned
	}
	m.scope.CounterOr(telemetry.CtrSymmetryEvals, ctrSymmetryEvals).Add(evals)
	m.scope.CounterOr(telemetry.CtrSymmetryAbandoned, ctrSymmetryAbandoned).Add(abandoned)
	return m.rankChildren(in, best)
}

// state is one partial merged configuration.
type state struct {
	pos  [][]int // per merged child (in merge order): task parent positions
	cube []int   // cube position chosen per merged child (in merge order)
	used uint64  // bitmask of occupied cube positions
	// key is the packed (cube, candidate, orientation) choice made at every
	// merge step: a placement key unique to the state, used as the
	// deterministic tie-break between equal-MCL states so beam contents
	// never depend on scoring order or parallelism.
	key   []uint64
	loads []float64
	mcl   float64
}

// packChoice encodes one merge step's choice as a single ordered word.
func packChoice(cube, cand, orient int) uint64 {
	return uint64(cube)<<40 | uint64(cand)<<20 | uint64(orient)
}

// lessKey compares placement keys lexicographically. Keys of states in the
// same beam have equal length.
func lessKey(a, b []uint64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// combo is one (beam state, child candidate, orientation, cube position)
// scoring unit of a merge step.
type combo struct {
	si     int32
	cand   int32
	orient int32
	cube   int32
	mcl    float64
}

// freeCubes returns the cube positions the incoming child may take given the
// occupied positions of a partial configuration, appended to dst.
func (m *merger) freeCubes(child int, used uint64, dst []int) []int {
	dst = dst[:0]
	if !m.cfg.Reposition {
		return append(dst, m.childPos[child])
	}
	for p := range m.origins {
		if used&(1<<uint(p)) == 0 {
			dst = append(dst, p)
		}
	}
	return dst
}

// applyVariant adds the child's internal and cross loads for placement p on
// top of dst (dense). Only the greedy completion path uses it; the scorers
// route precomputed crossEdge lists instead.
func (m *merger) applyVariant(st *state, order []int, step, child int, p []int, dst []float64) {
	add := func(a, b int, vol float64) { m.alg.AddLoads(m.parent, a, b, vol, dst) }
	m.eachFlow(m.children[child].Tasks, p, m.children[child].Tasks, p, true, add)
	for s := 0; s < step; s++ {
		m.eachFlow(m.children[order[s]].Tasks, st.pos[s], m.children[child].Tasks, p, false, add)
	}
}

// crossEdge is one directed flow between the incoming child of a merge step
// and an already-placed child. The list is extracted once per step so a
// combo evaluation touches exactly the flows it routes — no per-evaluation
// task-set marking.
type crossEdge struct {
	ci      int32 // local task index within the incoming child
	s       int32 // merge-order step of the placed child
	oi      int32 // local task index within that placed child
	toChild bool  // the flow runs placed -> child when set
	vol     float64
}

// crossEdgesFor lists the flows between the incoming child of this step and
// every placed child, in a deterministic order shared by the sparse and
// dense scorers and the materialization pass.
func (m *merger) crossEdgesFor(order []int, step int, childStep []int32) []crossEdge {
	child := order[step]
	var edges []crossEdge
	for li, t := range m.children[child].Tasks {
		for ni, d := range m.nbr[t] {
			if m.taskChild[d] < 0 {
				continue
			}
			s := childStep[m.taskChild[d]]
			if s < 0 || s >= int32(step) {
				continue
			}
			edges = append(edges, crossEdge{ci: int32(li), s: s, oi: m.taskLocal[d], vol: m.nvol[t][ni]})
		}
	}
	for s := 0; s < step; s++ {
		for oi, u := range m.children[order[s]].Tasks {
			for ni, d := range m.nbr[u] {
				if m.taskChild[d] != int32(child) {
					continue
				}
				edges = append(edges, crossEdge{ci: m.taskLocal[d], s: int32(s), oi: int32(oi), toChild: true, vol: m.nvol[u][ni]})
			}
		}
	}
	return edges
}

// stepLayout is the combo array of one merge step. (candidate, orientation)
// groups are contiguous, so a worker computes each group's reference
// placement and internal-load snapshot once and scores it against every
// (state, cube position); within a group, combos run over states in beam
// order and, per state, over its free cube positions.
type stepLayout struct {
	child, nc, groups, groupSize int
	cubesOf                      [][]int // per state: free cube positions
	off                          []int   // per state: offset of its combos within a group
	combos                       []combo
}

// layoutStep lays out every combo of the step placing child into beam, all
// unscored (mcl = +Inf).
func (m *merger) layoutStep(beam []*state, child int) *stepLayout {
	nc := len(m.children[child].Candidates)
	if nc > m.cfg.ChildCandidates {
		nc = m.cfg.ChildCandidates
	}
	sl := &stepLayout{child: child, nc: nc, groups: nc * len(m.orients)}
	sl.cubesOf = make([][]int, len(beam))
	sl.off = make([]int, len(beam)+1)
	for si, st := range beam {
		sl.cubesOf[si] = m.freeCubes(child, st.used, nil)
		sl.off[si+1] = sl.off[si] + len(sl.cubesOf[si])
	}
	sl.groupSize = sl.off[len(beam)]
	sl.combos = make([]combo, sl.groups*sl.groupSize)
	for g := 0; g < sl.groups; g++ {
		c, o := g/len(m.orients), g%len(m.orients)
		base := g * sl.groupSize
		for si := range beam {
			for qi, q := range sl.cubesOf[si] {
				sl.combos[base+sl.off[si]+qi] = combo{
					si: int32(si), cand: int32(c), orient: int32(o),
					cube: int32(q), mcl: math.Inf(1),
				}
			}
		}
	}
	return sl
}

// selectBeam sorts the step's combos by score — equal scores by placement
// key: state choice path first, then this step's packed choice, a total
// order independent of scoring order and parallelism — and keeps the best
// BeamWidth.
func (m *merger) selectBeam(beam []*state, combos []combo) []combo {
	sort.Slice(combos, func(a, b int) bool {
		ca, cb := &combos[a], &combos[b]
		if ca.mcl < cb.mcl {
			return true
		}
		if cb.mcl < ca.mcl {
			return false
		}
		if ca.si != cb.si {
			return lessKey(beam[ca.si].key, beam[cb.si].key)
		}
		return packChoice(int(ca.cube), int(ca.cand), int(ca.orient)) <
			packChoice(int(cb.cube), int(cb.cand), int(cb.orient))
	})
	if len(combos) > m.cfg.BeamWidth {
		combos = combos[:m.cfg.BeamWidth]
	}
	return combos
}

// extend returns st with the child of this step placed at p, carrying loads.
func extend(st *state, step int, p []int, sc combo, loads []float64) *state {
	pos := make([][]int, step+1)
	copy(pos, st.pos)
	pos[step] = p
	cube := make([]int, step+1)
	copy(cube, st.cube)
	cube[step] = int(sc.cube)
	key := make([]uint64, step+1)
	copy(key, st.key)
	key[step] = packChoice(int(sc.cube), int(sc.cand), int(sc.orient))
	return &state{
		pos:   pos,
		cube:  cube,
		used:  st.used | 1<<uint(sc.cube),
		key:   key,
		loads: loads,
		mcl:   sc.mcl,
	}
}

// scoreWorker is one scoring goroutine's scratch and exact work counts.
type scoreWorker struct {
	dv              *routing.DeltaVec
	pos             []int
	hits, abandoned int64
}

// scoreStep scores the step's combos in rounds of roundGroups groups. Before
// each round the cutoff u is the BeamWidth-th smallest score of the combos
// fully scored in earlier rounds (+Inf until that many exist); inside the
// round a combo is abandoned, keeping mcl = +Inf, once its running peak is
// strictly above u — its final score would be too, and at least BeamWidth
// combos score <= u, so it could never survive selectBeam. Equal scores are
// kept, so ties still reach the placement-key tie-break. u changes only
// between rounds, so which combos are abandoned does not depend on the
// number of workers or their scheduling.
func (m *merger) scoreStep(beam []*state, sl *stepLayout, crossEdges []crossEdge, ws []scoreWorker) {
	child := sl.child
	tasks := m.children[child].Tasks
	refCube := m.childPos[child]
	nd2 := m.parent.NumDims() * 2
	refPos := make([][]int, sl.groups)
	snaps := make([]routing.Snapshot, sl.groups)
	parallel(sl.groups, len(ws), func(w, g int) {
		if m.canceled() {
			return
		}
		dv := ws[w].dv
		refPos[g] = m.placement(child, m.children[child].Candidates[g/len(m.orients)], m.orients[g%len(m.orients)])
		dv.Reset()
		m.addInternalDelta(tasks, refPos[g], dv)
		snaps[g] = dv.Snapshot()
	})

	var kept []float64 // the BeamWidth smallest full scores, ascending
	for r0 := 0; r0 < sl.groups && !m.canceled(); r0 += roundGroups {
		r1 := min(r0+roundGroups, sl.groups)
		u := math.Inf(1)
		if len(kept) == m.cfg.BeamWidth {
			u = kept[len(kept)-1]
		}
		// One unit scores group g against state si at each free cube.
		parallel((r1-r0)*len(beam), len(ws), func(w, unit int) {
			if m.canceled() {
				return // unscored combos keep mcl=+Inf; run() discards the step
			}
			sw := &ws[w]
			g, si := r0+unit/len(beam), unit%len(beam)
			st := beam[si]
			cubes := sl.cubesOf[si]
			if st.mcl > u {
				sw.abandoned += int64(len(cubes))
				return
			}
			ref, dv := refPos[g], sw.dv
			if cap(sw.pos) < len(ref) {
				sw.pos = make([]int, len(ref))
			}
			posBuf := sw.pos[:len(ref)]
			base := g*sl.groupSize + sl.off[si]
			var hits int64
			for qi, q := range cubes {
				rankOff := m.originRank[q] - m.originRank[refCube]
				for i := range ref {
					posBuf[i] = ref[i] + rankOff
				}
				dv.ResetOver(st.loads, st.mcl)
				dv.AddSnapshot(snaps[g], rankOff*nd2)
				if !m.addCrossEdgesBounded(crossEdges, st, posBuf, dv, u) {
					continue
				}
				sl.combos[base+qi].mcl = dv.Peak()
				hits++
			}
			sw.hits += hits
			sw.abandoned += int64(len(cubes)) - hits
		})
		for _, c := range sl.combos[r0*sl.groupSize : r1*sl.groupSize] {
			if !math.IsInf(c.mcl, 1) {
				kept = append(kept, c.mcl)
			}
		}
		sort.Float64s(kept)
		if len(kept) > m.cfg.BeamWidth {
			kept = kept[:m.cfg.BeamWidth]
		}
	}
}

// addCrossEdgesBounded routes the step's cross flows for the child placed at
// cp (task local index -> parent rank) against the state's placements,
// stopping as soon as the running peak exceeds u (u = +Inf routes them all).
// It reports whether every flow was routed with the peak at most u, the
// deposits already in dv included.
func (m *merger) addCrossEdgesBounded(edges []crossEdge, st *state, cp []int, dv *routing.DeltaVec, u float64) bool {
	if dv.Peak() > u {
		return false
	}
	disp := m.disp
	for _, e := range edges {
		pp := st.pos[e.s][e.oi]
		if e.toChild {
			disp.AddDelta(pp, cp[e.ci], e.vol, dv)
		} else {
			disp.AddDelta(cp[e.ci], pp, e.vol, dv)
		}
		if dv.Peak() > u {
			return false
		}
	}
	return true
}

// materialize builds the next beam from the selected combos. Each winner's
// contribution is re-accumulated at its actual cube position —
// bit-identical to the translated snapshot used for scoring — and added
// onto a copy of its state's loads.
func (m *merger) materialize(beam []*state, sl *stepLayout, combos []combo, step int, crossEdges []crossEdge, dv *routing.DeltaVec) []*state {
	tasks := m.children[sl.child].Tasks
	next := make([]*state, 0, len(combos))
	for _, sc := range combos {
		st := beam[sc.si]
		cand := m.children[sl.child].Candidates[sc.cand]
		p := m.placementAt(sl.child, cand, m.orients[sc.orient], int(sc.cube))
		loads := append([]float64(nil), st.loads...)
		dv.Reset()
		m.addInternalDelta(tasks, p, dv)
		m.addCrossEdgesBounded(crossEdges, st, p, dv, math.Inf(1))
		dv.AddTo(loads)
		next = append(next, extend(st, step, p, sc, loads))
	}
	return topN(next, m.cfg.BeamWidth)
}

func (m *merger) run() (*Block, error) {
	order := m.mergeOrder()
	if err := hardCancel(m.ctx); err != nil {
		return nil, err
	}
	degraded := false
	var candGen, candKept, deltaHits, abandoned int64
	defer func() {
		m.scope.CounterOr(telemetry.CtrBeamCandidates, ctrBeamCandidates).Add(candGen)
		m.scope.CounterOr(telemetry.CtrBeamKept, ctrBeamKept).Add(candKept)
		m.scope.CounterOr(telemetry.CtrDeltaHits, ctrDeltaHits).Add(deltaHits)
		m.scope.CounterOr(telemetry.CtrBeamAbandoned, ctrBeamAbandoned).Add(abandoned)
	}()

	ws := make([]scoreWorker, m.workers)
	for w := range ws {
		ws[w].dv = routing.NewDeltaVec(m.parent.NumChannels())
	}
	// The beam starts from the empty configuration; step 0 seeds it with
	// the first child's variants through the same scoring path as every
	// later step.
	beam := []*state{{loads: make([]float64, m.parent.NumChannels())}}
	childStep := make([]int32, len(m.children))
	for i := range childStep {
		childStep[i] = -1
	}

	for step := 0; step < len(order); step++ {
		if err := hardCancel(m.ctx); err != nil {
			return nil, err
		}
		if expired(m.ctx) {
			beam = m.completeGreedy(beam, order, step)
			degraded = true
			if step == 0 {
				m.obs.BeamRound(m.cfg.Level, 0, len(beam), beam[0].mcl)
			}
			break
		}
		child := order[step]
		crossEdges := m.crossEdgesFor(order, step, childStep)
		childStep[child] = int32(step)

		// Pass 1: score every combo, bounded by the running cutoff.
		sl := m.layoutStep(beam, child)
		for w := range ws {
			ws[w].hits, ws[w].abandoned = 0, 0
		}
		m.scoreStep(beam, sl, crossEdges, ws)
		if err := hardCancel(m.ctx); err != nil {
			return nil, err
		}
		if expired(m.ctx) {
			// The step was cut short; its scores are partial. Discard them
			// and complete this and the remaining steps greedily.
			beam = m.completeGreedy(beam, order, step)
			degraded = true
			break
		}
		candGen += int64(len(sl.combos))
		for _, sw := range ws {
			deltaHits += sw.hits
			abandoned += sw.abandoned
		}
		combos := m.selectBeam(beam, sl.combos)
		candKept += int64(len(combos))

		// Pass 2: materialize the winners.
		beam = m.materialize(beam, sl, combos, step, crossEdges, ws[0].dv)
		m.obs.BeamRound(m.cfg.Level, step, len(beam), beam[0].mcl)
	}
	return m.assemble(beam, order, degraded), nil
}

// assemble builds the merged block: tasks ascending, candidates from the
// beam.
func (m *merger) assemble(beam []*state, order []int, degraded bool) *Block {
	var allTasks []int
	for _, c := range m.children {
		allTasks = append(allTasks, c.Tasks...)
	}
	sort.Ints(allTasks)
	taskIdx := make(map[int]int, len(allTasks))
	for i, t := range allTasks {
		taskIdx[t] = i
	}
	parentShape := make([]int, len(m.cubeShape))
	for d := range parentShape {
		parentShape[d] = m.cubeShape[d] * m.childShape[d]
	}
	out := &Block{Tasks: allTasks, Shape: parentShape, Degraded: degraded}
	for _, st := range beam {
		local := make(topology.Mapping, len(allTasks))
		for s := 0; s < len(order); s++ {
			tasks := m.children[order[s]].Tasks
			for i, t := range tasks {
				local[taskIdx[t]] = st.pos[s][i]
			}
		}
		out.Candidates = append(out.Candidates, Candidate{Local: local, MCL: st.mcl})
	}
	return out
}

// completeGreedy finishes an interrupted merge from the best surviving
// state: each remaining child (steps from..end of order) is absorbed with
// its first candidate, the identity orientation, and its pinned cube
// position (or the first free one when Reposition already took it). The
// result is a valid single-candidate beam without any further search.
func (m *merger) completeGreedy(beam []*state, order []int, from int) []*state {
	st := beam[0]
	for step := from; step < len(order); step++ {
		child := order[step]
		cube := m.childPos[child]
		if st.used&(1<<uint(cube)) != 0 {
			for p := range m.origins {
				if st.used&(1<<uint(p)) == 0 {
					cube = p
					break
				}
			}
		}
		cand := m.children[child].Candidates[0]
		p := m.placementAt(child, cand, m.orients[0], cube)
		loads := append([]float64(nil), st.loads...)
		m.applyVariant(st, order, step, child, p, loads)
		pos := make([][]int, step+1)
		copy(pos, st.pos)
		pos[step] = p
		cubes := make([]int, step+1)
		copy(cubes, st.cube)
		cubes[step] = cube
		key := make([]uint64, step+1)
		copy(key, st.key)
		key[step] = packChoice(cube, 0, 0)
		st = &state{
			pos:   pos,
			cube:  cubes,
			used:  st.used | 1<<uint(cube),
			key:   key,
			loads: loads,
			mcl:   routing.MCL(loads),
		}
	}
	return []*state{st}
}

// topN sorts states ascending by MCL — equal-MCL states ordered by their
// placement key, an explicit deterministic tie-break — and truncates.
func topN(states []*state, n int) []*state {
	sort.Slice(states, func(a, b int) bool {
		sa, sb := states[a], states[b]
		if sa.mcl < sb.mcl {
			return true
		}
		if sb.mcl < sa.mcl {
			return false
		}
		return lessKey(sa.key, sb.key)
	})
	if len(states) > n {
		states = states[:n]
	}
	return states
}
