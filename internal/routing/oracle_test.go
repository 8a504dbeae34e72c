package routing

import (
	"rahtm/internal/topology"
)

// directDP is the reference minimal-adaptive evaluator: for every box of a
// flow it runs the proportional-split DP over the box itself, depositing
// channel loads as it goes, with no stencil and no cache. Production routes
// every box through the copy of the same DP in buildStencil, which records
// unit fractions and scales them by the volume afterwards, so the two agree
// up to floating-point rounding rather than bit for bit.
type directDP struct{}

func (directDP) Name() string { return "minimal-adaptive (direct DP)" }

func (directDP) AddLoads(t *topology.Torus, src, dst int, vol float64, loads []float64) {
	if src == dst || vol == 0 {
		return
	}
	f := oracleFlow(t, src, dst)
	for mask := 0; mask < f.combos(); mask++ {
		addMinimalBoxLoads(t, f.cs, f.dirsFor(mask), f.dists, vol/float64(f.combos()), loads)
	}
}

// oracleRoute is the reference for a flow's directions, written apart from
// prepareFlow: per-dimension minimal directions and distances, with the
// tied dimensions (torus distance exactly k/2) enumerated by mask.
type oracleRoute struct {
	cs, dirs, dists, ties []int
}

func oracleFlow(t *topology.Torus, src, dst int) oracleRoute {
	cs, cd := t.CoordOf(src, nil), t.CoordOf(dst, nil)
	f := oracleRoute{cs: cs, dirs: make([]int, len(cs)), dists: make([]int, len(cs))}
	for d := range cs {
		k := t.Dim(d)
		plus := cd[d] - cs[d]
		if t.Wrap(d) {
			plus = ((plus % k) + k) % k
		}
		switch {
		case plus >= 0 && (!t.Wrap(d) || 2*plus <= k):
			f.dirs[d], f.dists[d] = topology.Plus, plus
			if t.Wrap(d) && plus > 0 && 2*plus == k {
				f.ties = append(f.ties, d)
			}
		case plus < 0:
			f.dirs[d], f.dists[d] = topology.Minus, -plus
		default:
			f.dirs[d], f.dists[d] = topology.Minus, k-plus
		}
	}
	return f
}

func (f oracleRoute) combos() int { return 1 << len(f.ties) }

// dirsFor returns the travel directions of combination mask: bit b sends
// tie b Minus.
func (f oracleRoute) dirsFor(mask int) []int {
	dirs := append([]int(nil), f.dirs...)
	for b, d := range f.ties {
		if mask&(1<<b) != 0 {
			dirs[d] = topology.Minus
		}
	}
	return dirs
}

// addMinimalBoxLoads runs the proportional-split DP over the minimal box
// defined by the source coordinate, the per-dimension travel directions and
// distances, adding channel loads for vol units of flow.
func addMinimalBoxLoads(t *topology.Torus, cs, dirs, dists []int, vol float64, loads []float64) {
	nd := t.NumDims()
	total := 1
	shape := make([]int, nd)
	for d := 0; d < nd; d++ {
		shape[d] = dists[d] + 1
		total *= shape[d]
	}
	strides := make([]int, nd)
	s := 1
	for d := nd - 1; d >= 0; d-- {
		strides[d] = s
		s *= shape[d]
	}

	p := make([]float64, total)
	p[0] = vol
	u := make([]int, nd)
	coord := make([]int, nd)
	for idx := 0; idx < total; idx++ {
		pu := p[idx]
		remain := 0
		for d := 0; d < nd; d++ {
			remain += dists[d] - u[d]
		}
		if pu != 0 && remain > 0 {
			for d := 0; d < nd; d++ {
				k := t.Dim(d)
				if dirs[d] == topology.Plus {
					coord[d] = (cs[d] + u[d]) % k
				} else {
					coord[d] = ((cs[d]-u[d])%k + k) % k
				}
			}
			node := t.RankOf(coord)
			inv := pu / float64(remain)
			for d := 0; d < nd; d++ {
				left := dists[d] - u[d]
				if left == 0 {
					continue
				}
				frac := inv * float64(left)
				loads[t.ChannelID(node, d, dirs[d])] += frac
				p[idx+strides[d]] += frac
			}
		}
		incOffset(u, shape)
	}
}

// stencilLoads routes one flow the way the evaluator must whatever the
// cache holds: through a freshly built stencil of its distance vector,
// applied once per direction combination.
func stencilLoads(t *topology.Torus, src, dst int, vol float64, loads []float64) {
	f := oracleFlow(t, src, dst)
	sc := getScratch(t.NumDims())
	defer putScratch(sc)
	s := buildStencil(new(stencil), f.dists, sc)
	for mask := 0; mask < f.combos(); mask++ {
		s.apply(t, f.cs, f.dirsFor(mask), vol/float64(f.combos()), loads, sc)
	}
}

// Test-only DeltaVec and Snapshot references: dense recomputations of what
// the production accumulator tracks incrementally.

// NumTouched returns how many distinct channels hold deltas.
func (v *DeltaVec) NumTouched() int { return len(v.touched) }

// Max returns the maximum accumulated delta (0 when nothing was touched,
// matching MCL of an otherwise-zero load vector).
func (v *DeltaVec) Max() float64 {
	max := 0.0
	for _, ch := range v.touched {
		if x := v.vals[ch]; x > max {
			max = x
		}
	}
	return max
}

// MaxOver returns max(baseMCL, max over touched ch of base[ch]+delta[ch]) —
// the MCL of base with the deltas applied, exact when baseMCL == MCL(base)
// and all deltas are non-negative.
func (v *DeltaVec) MaxOver(base []float64, baseMCL float64) float64 {
	max := baseMCL
	for _, ch := range v.touched {
		if x := base[ch] + v.vals[ch]; x > max {
			max = x
		}
	}
	return max
}

// AddSnapshotTo replays a snapshot into a dense load vector with every
// channel id shifted by chOff.
func (s Snapshot) AddSnapshotTo(loads []float64, chOff int) {
	for i, ch := range s.Ch {
		loads[int(ch)+chOff] += s.Val[i]
	}
}
