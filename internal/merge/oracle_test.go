package merge

import (
	"context"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
)

// oracleMerge is the unbounded dense reference for Merge. It shares the
// merger's validation, step layout, tie-break and assembly, but scores every
// combo — and every merge-order orientation pair — in full, sequentially, by
// accumulating its loads into a zeroed dense vector: no running peak, no
// cutoff, no snapshot translation. Production beams must match it byte for
// byte.
func oracleMerge(t *testing.T, g *graph.Comm, children []*Block, cubeShape, childPos []int, cfg Config) *Block {
	t.Helper()
	cfg.Parallelism = 1
	m, err := newMerger(context.Background(), g, children, cubeShape, childPos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := m.oracleOrder()
	beam := []*state{{loads: make([]float64, m.parent.NumChannels())}}
	childStep := make([]int32, len(m.children))
	for i := range childStep {
		childStep[i] = -1
	}
	buf := make([]float64, m.parent.NumChannels())
	// dense adds the step's loads for the child placed at p onto a zeroed
	// buf: internal flows, then cross flows in crossEdgesFor order.
	dense := func(st *state, tasks, p []int, edges []crossEdge) {
		clear(buf)
		m.eachFlow(tasks, p, tasks, p, true, func(a, b int, vol float64) {
			m.alg.AddLoads(m.parent, a, b, vol, buf)
		})
		m.addCrossEdges(edges, st, p, buf)
	}
	for step, child := range order {
		tasks := m.children[child].Tasks
		edges := m.crossEdgesFor(order, step, childStep)
		childStep[child] = int32(step)
		sl := m.layoutStep(beam, child)
		for i := range sl.combos {
			c := &sl.combos[i]
			st := beam[c.si]
			dense(st, tasks, m.placementAt(child, m.children[child].Candidates[c.cand], m.orients[c.orient], int(c.cube)), edges)
			c.mcl = maxShifted(st.loads, buf)
		}
		combos := m.selectBeam(beam, sl.combos)
		next := make([]*state, 0, len(combos))
		for _, sc := range combos {
			st := beam[sc.si]
			p := m.placementAt(child, m.children[child].Candidates[sc.cand], m.orients[sc.orient], int(sc.cube))
			dense(st, tasks, p, edges)
			loads := append([]float64(nil), st.loads...)
			for k := range loads {
				loads[k] += buf[k]
			}
			next = append(next, extend(st, step, p, sc, loads))
		}
		beam = topN(next, m.cfg.BeamWidth)
	}
	return m.assemble(beam, order, false)
}

// oracleOrder is mergeOrder with every orientation pair scored in full into
// a zeroed dense vector. It takes only the placements, pairs and cross
// flows from orderSetup; each child's internal loads are routed again with
// AddLoads, so the sparse table path is checked end to end.
func (m *merger) oracleOrder() []int {
	if len(m.children) == 1 {
		return []int{0}
	}
	in := m.orderSetup()
	internal := make([][][]float64, len(m.children))
	for i := range internal {
		tasks := m.children[i].Tasks
		internal[i] = make([][]float64, in.ko)
		for oi, p := range in.pl[i] {
			loads := make([]float64, m.parent.NumChannels())
			m.eachFlow(tasks, p, tasks, p, true, func(a, b int, vol float64) {
				m.alg.AddLoads(m.parent, a, b, vol, loads)
			})
			internal[i][oi] = loads
		}
	}
	buf := make([]float64, m.parent.NumChannels())
	best := make([]float64, len(in.pairs))
	for pi, p := range in.pairs {
		bst := -1.0
		for oi := 0; oi < in.ko; oi++ {
			for oj := 0; oj < in.ko; oj++ {
				copy(buf, internal[p.i][oi])
				for ch, v := range internal[p.j][oj] {
					buf[ch] += v
				}
				for _, e := range in.edges[pi] {
					a, b := in.pl[p.i][oi][e.ai], in.pl[p.j][oj][e.bi]
					if e.fromJ {
						a, b = b, a
					}
					m.alg.AddLoads(m.parent, a, b, e.vol, buf)
				}
				if mcl := routing.MCL(buf); bst < 0 || mcl < bst {
					bst = mcl
				}
			}
		}
		best[pi] = bst
	}
	return m.rankChildren(in, best)
}

// addCrossEdges routes the step's cross flows for the child placed at cp
// into a dense vector, in crossEdgesFor order.
func (m *merger) addCrossEdges(edges []crossEdge, st *state, cp []int, loads []float64) {
	for _, e := range edges {
		pp := st.pos[e.s][e.oi]
		if e.toChild {
			m.alg.AddLoads(m.parent, pp, cp[e.ci], e.vol, loads)
		} else {
			m.alg.AddLoads(m.parent, cp[e.ci], pp, e.vol, loads)
		}
	}
}

// maxShifted returns the maximum of base[ch]+delta[ch] over all channels:
// the dense score of a combo.
func maxShifted(base, delta []float64) float64 {
	max := 0.0
	for ch, b := range base {
		if v := b + delta[ch]; v > max {
			max = v
		}
	}
	return max
}
