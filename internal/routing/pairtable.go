package routing

// Pair deposit tables for placement enumeration.
//
// Phase 2's exhaustive solver scores every placement of a cube of at most
// eight nodes. Routing each flow from scratch repeats the same work per
// placement — scratch get/put, CoordOf, prepareFlow with its stencil
// lookup, and fillChanTab — although a tiny cube has at most 56 ordered
// node pairs. A PairTable does that work once per pair and records the
// resulting deposit sequence, so scoring a placement becomes a walk over
// precomputed (channel, fraction) entries.

import (
	"rahtm/internal/topology"
)

// PairTable holds, for every ordered node pair (a, b) of a topology, the
// exact deposit sequence MinimalAdaptive.AddLoads makes for a flow from a
// to b: every direction combination prepareFlow admits, in mask order,
// each contributing its stencil's cells in stencil order. An entry is a
// channel id and the unit fraction the stencil deposits there. Replay
// divides the volume by the pair's combination count and adds frac*cv per
// entry — the same operations, in the same per-channel order, as
// stencil.apply — so replayed loads match AddLoads bit for bit.
//
// The table grows with the square of the node count times the box size; it
// is meant for topologies small enough to enumerate placements on. It is
// immutable once built and safe for concurrent use.
type PairTable struct {
	n int
	// start[p]..start[p+1] index the entries of pair p = a*n+b.
	start []int32
	// div[p] is pair p's direction-combination count.
	div  []float64
	ch   []int32
	frac []float64
}

// PairTable builds the deposit table of t through the same flow prelude as
// AddLoads. Its stencil lookups are accounted like AddLoads calls (to a's
// scope when a is scoped).
func (a MinimalAdaptive) PairTable(t *topology.Torus) *PairTable {
	n := t.N()
	pt := &PairTable{
		n:     n,
		start: make([]int32, 1, n*n+1),
		div:   make([]float64, n*n),
	}
	sc := getScratch(t.NumDims())
	defer putScratch(sc)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			combos := 1
			if dst != src {
				var s *stencil
				s, combos = sc.prepareFlow(t, src, dst)
				for mask := 0; mask < combos; mask++ {
					sc.setCombo(mask)
					pt.ch, pt.frac = s.appendDeposits(t, sc.cs, sc.dirs, pt.ch, pt.frac, sc)
				}
			}
			pt.div[src*n+dst] = float64(combos)
			pt.start = append(pt.start, int32(len(pt.ch)))
		}
	}
	sc.flushStencil(a)
	return pt
}

// Replay adds the loads of vol units routed from node a to node b into
// loads, exactly as AddLoads would, and reports whether every channel it
// deposited on stayed below bound. It stops at the first deposit that
// brings a channel to bound or above, leaving the flow partially applied:
// with non-negative volumes loads only grow, so that channel's final load —
// and the MCL — is at least bound. A finite replay never reaches a bound of
// +Inf. A negative vol subtracts.
func (pt *PairTable) Replay(a, b int, vol float64, loads []float64, bound float64) bool {
	if vol == 0 {
		return true
	}
	p := a*pt.n + b
	lo, hi := pt.start[p], pt.start[p+1]
	cv := vol / pt.div[p]
	frac := pt.frac[lo:hi]
	for i, ch := range pt.ch[lo:hi] {
		v := loads[ch] + frac[i]*cv
		loads[ch] = v
		if v >= bound {
			return false
		}
	}
	return true
}
