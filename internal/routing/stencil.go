package routing

// Displacement stencils: the only implementation of the minimal-adaptive
// DP.
//
// The proportional-split DP distributes a flow over the minimal box spanned
// by its per-dimension travel distances. The load *fraction* deposited on
// each channel of that box depends only on the distance vector — it is
// invariant under translation of the source, under the travel directions
// (the box is mirror-symmetric), and under the topology the box is embedded
// in. buildStencil runs the DP once per distance vector with unit volume,
// recording a list of (cell offset, dimension, fraction) triples; every box
// of every flow is then routed by translating the cell offsets from the
// flow's source coordinate and scaling by its volume. This turns the
// per-flow DP (fill an O(box) flow array) into a linear walk over
// precomputed fractions. The annealing incremental evaluator routes every
// flow this way; the Phase 3 merge scorers and the Phase 2 exhaustive
// solver record each stencil walk once into a DispTable or PairTable and
// replay it.
//
// Stencils are memoized in a process-wide cache bounded by maxStencilCells.
// A box the cache cannot hold gets a stencil built for it alone, by the
// same DP, so the bits a box deposits never depend on the cache's state.

import (
	"sync"
	"sync/atomic"

	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

const (
	// maxStencilDims bounds the dimensionality a stencil key can encode.
	maxStencilDims = 8
	// maxStencilDist bounds each per-dimension distance a key can encode.
	maxStencilDist = 255
	// maxStencilCells bounds the total cells held by the cache (~48 bytes
	// per cell); a box whose stencil would exceed the budget is routed by a
	// stencil built for it alone and not kept.
	maxStencilCells = 1 << 20
)

// stencil is the unit-volume channel-load pattern of one displacement,
// stored flat: cell c occupies offs[c*nd : (c+1)*nd] and owns cnt[c]
// consecutive (dims, fracs) entries. Cells appear in the DP's visit order,
// and every box is routed through a stencil, so a flow's deposits happen in
// the same order whatever the cache holds.
//
// offs holds table indices, not raw box offsets: the entry for cell c,
// dimension d is tabOff(d)+u where u is the cell's box offset along d and
// tabOff(d) is the running sum of shape[:d]. Resolving each index through a
// per-flow channel-base table (fillChanTab) turns the per-cell node-rank
// computation — wrap, RankOf, ChannelID — into nd loads and adds.
type stencil struct {
	nd    int
	cells int
	offs  []int32
	cnt   []int32
	dims  []int8
	fracs []float64
	// shape[d] = dists[d]+1; tabLen = sum(shape) = channel-base table size.
	shape  []int32
	tabLen int
}

// fillChanTab writes the channel-base table for applying s to one concrete
// flow: for dimension d and box offset u, tab[tabOff(d)+u] holds the
// channels-per-node multiple of the rank contribution of the wrapped
// coordinate cs[d] stepped u hops along dirs[d]. Summing one entry per
// dimension yields node*2*nd — the base of the node's channel-id block.
func (s *stencil) fillChanTab(t *topology.Torus, cs, dirs []int, tab []int) {
	ti := 0
	for d := 0; d < s.nd; d++ {
		k := t.Dim(d)
		m := 2 * s.nd * t.Stride(d)
		c := cs[d]
		if dirs[d] == topology.Plus {
			for u := 0; u < int(s.shape[d]); u++ {
				v := c + u
				if v >= k {
					v -= k
				}
				tab[ti] = m * v
				ti++
			}
		} else {
			for u := 0; u < int(s.shape[d]); u++ {
				v := c - u
				if v < 0 {
					v += k
				}
				tab[ti] = m * v
				ti++
			}
		}
	}
}

var (
	stencilCache sync.Map // uint64 key -> *stencil
	stencilCells atomic.Int64
)

// Cache telemetry. Hits and misses fire once per routed box — the hottest
// counter in the process — so the per-box path increments plain ints on the
// scratch and flushStencil drains them once per AddLoads call or table build
// through striped local handles (claimed in the pool's New func; sync.Pool's
// per-P affinity spreads the stripes across CPUs). A hit is a box served by
// a published stencil; a miss is a box served by an unpublished one (its key
// does not fit or the cell budget is full). Builds and evictions are rare
// and use the counters directly: builds counts stencils built for
// publication, evictions the ones that lost a publication race.
var (
	ctrStencilHits      = telemetry.Default.Counter(telemetry.CtrStencilHits)
	ctrStencilMisses    = telemetry.Default.Counter(telemetry.CtrStencilMisses)
	ctrStencilBuilds    = telemetry.Default.Counter(telemetry.CtrStencilBuilds)
	ctrStencilEvictions = telemetry.Default.Counter(telemetry.CtrStencilEvictions)
)

// stencilKey packs a distance vector into a cache key. ok is false when the
// vector does not fit the key encoding (too many dims or too far).
func stencilKey(dists []int) (key uint64, ok bool) {
	if len(dists) > maxStencilDims {
		return 0, false
	}
	key = uint64(len(dists))
	for _, x := range dists {
		if x > maxStencilDist {
			return 0, false
		}
		key = key<<8 | uint64(x)
	}
	return key, true
}

// boxCells returns the number of cells a stencil of dists holds — every
// cell of the minimal box but the destination — saturated just above
// maxStencilCells, so the budget can be checked before building.
func boxCells(dists []int) int64 {
	n := int64(1)
	for _, x := range dists {
		n *= int64(x) + 1
		if n > maxStencilCells {
			return maxStencilCells + 1
		}
	}
	return n - 1
}

// stencilFor returns the stencil of dists and whether it is published (a
// cache hit). It looks in the scratch's direct-mapped memo, then in the
// process-wide cache, and otherwise builds the stencil, publishing it when
// the key fits and the cell budget has room. A stencil that cannot be
// published is built into the scratch-owned sc.own, reusing its storage.
// Every path runs the same DP, so a box's deposits never depend on the
// cache's state.
//
// The annealing evaluator routes millions of boxes drawn from a few hundred
// distinct displacement vectors, so the interface-hashing sync.Map lookup
// is measurable; the memo turns the common repeat into two array reads.
// Published stencils are immutable and never unpublished, so memo entries
// cannot go stale.
func (sc *scratch) stencilFor(dists []int) (*stencil, bool) {
	key, ok := stencilKey(dists)
	if !ok {
		return buildStencil(&sc.own, dists, sc), false
	}
	// Fibonacci-hash the key into a slot; keys are nonzero (they encode
	// the dimension count), so the zero-initialized memo never false-hits.
	slot := (key * 0x9e3779b97f4a7c15) >> (64 - stencilMemoBits)
	if sc.memoKey[slot] == key {
		return sc.memoVal[slot], true
	}
	var s *stencil
	if v, ok := stencilCache.Load(key); ok {
		s = v.(*stencil)
	} else {
		cells := boxCells(dists)
		if stencilCells.Add(cells) > maxStencilCells {
			stencilCells.Add(-cells)
			return buildStencil(&sc.own, dists, sc), false
		}
		s = buildStencil(new(stencil), dists, sc)
		ctrStencilBuilds.Inc()
		if prev, lost := stencilCache.LoadOrStore(key, s); lost {
			// Another builder published first: return the cells and use
			// the published copy, which holds the same bits. The box
			// counts as a hit either way, so the hit count never depends
			// on worker timing.
			stencilCells.Add(-cells)
			ctrStencilEvictions.Inc()
			s = prev.(*stencil)
		}
	}
	sc.memoKey[slot] = key
	sc.memoVal[slot] = s
	return s, true
}

// buildStencil runs the proportional-split DP once with unit volume into
// st, recording per-cell fractions instead of depositing channel loads, and
// returns st. It reuses st's slices when they are large enough; sc supplies
// the DP's working storage.
func buildStencil(st *stencil, dists []int, sc *scratch) *stencil {
	nd := len(dists)
	total := 1
	shape := sc.shape
	for d := 0; d < nd; d++ {
		shape[d] = dists[d] + 1
		total *= shape[d]
	}
	strides := sc.strides
	s := 1
	for d := nd - 1; d >= 0; d-- {
		strides[d] = s
		s *= shape[d]
	}
	// Every cell but the destination deposits, once per dimension it still
	// has to travel: the entries along d number dists[d]*(total/shape[d]).
	entries := 0
	for d := 0; d < nd; d++ {
		entries += dists[d] * (total / shape[d])
	}
	st.nd, st.cells, st.tabLen = nd, 0, 0
	st.shape = reuse(st.shape, nd)
	st.offs = reuse(st.offs, (total-1)*nd)
	st.cnt = reuse(st.cnt, total-1)
	st.dims = reuse(st.dims, entries)
	st.fracs = reuse(st.fracs, entries)
	tabOff := sc.tabOff
	for d := 0; d < nd; d++ {
		st.shape = append(st.shape, int32(shape[d]))
		tabOff[d] = st.tabLen
		st.tabLen += shape[d]
	}

	p := sc.floats(total)
	p[0] = 1
	u := sc.u
	for d := range u {
		u[d] = 0
	}
	for idx := 0; idx < total; idx++ {
		pu := p[idx]
		if pu == 0 {
			incOffset(u, shape)
			continue
		}
		remain := 0
		for d := 0; d < nd; d++ {
			remain += dists[d] - u[d]
		}
		if remain > 0 {
			st.cells++
			for d := 0; d < nd; d++ {
				st.offs = append(st.offs, int32(tabOff[d]+u[d]))
			}
			n := int32(0)
			inv := pu / float64(remain)
			for d := 0; d < nd; d++ {
				left := dists[d] - u[d]
				if left == 0 {
					continue
				}
				frac := inv * float64(left)
				st.dims = append(st.dims, int8(d))
				st.fracs = append(st.fracs, frac)
				p[idx+strides[d]] += frac
				n++
			}
			st.cnt = append(st.cnt, n)
		}
		incOffset(u, shape)
	}
	return st
}

// incOffset advances a mixed-radix counter (row-major, last dim fastest).
func incOffset(u, shape []int) {
	for d := len(u) - 1; d >= 0; d-- {
		u[d]++
		if u[d] < shape[d] {
			return
		}
		u[d] = 0
	}
}

// reuse returns s emptied, with room for n elements: s itself when its
// capacity suffices, a fresh slice otherwise.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// apply translates the stencil to a concrete flow: source coordinate cs,
// travel directions dirs, vol units of traffic. sc supplies the channel-base
// table storage. Deposits follow the stencil's cell order.
func (s *stencil) apply(t *topology.Torus, cs, dirs []int, vol float64, loads []float64, sc *scratch) {
	nd := s.nd
	tab := sc.ints(s.tabLen)
	s.fillChanTab(t, cs, dirs, tab)
	chanOff := sc.chanOff
	for d := 0; d < nd; d++ {
		chanOff[d] = 2*d + dirs[d]
	}
	ei := 0
	for c := 0; c < s.cells; c++ {
		base := c * nd
		nodeCh := 0
		for d := 0; d < nd; d++ {
			nodeCh += tab[s.offs[base+d]]
		}
		for n := s.cnt[c]; n > 0; n-- {
			loads[nodeCh+chanOff[s.dims[ei]]] += s.fracs[ei] * vol
			ei++
		}
	}
}

// appendDeposits is apply recording instead of depositing: for the same
// flow it appends the channel ids apply would add to, in apply's order,
// with the unit fractions apply would scale by the flow's volume.
func (s *stencil) appendDeposits(t *topology.Torus, cs, dirs []int, chs []int32, fracs []float64, sc *scratch) ([]int32, []float64) {
	nd := s.nd
	tab := sc.ints(s.tabLen)
	s.fillChanTab(t, cs, dirs, tab)
	ei := 0
	for c := 0; c < s.cells; c++ {
		base := c * nd
		nodeCh := 0
		for d := 0; d < nd; d++ {
			nodeCh += tab[s.offs[base+d]]
		}
		for n := s.cnt[c]; n > 0; n-- {
			d := int(s.dims[ei])
			chs = append(chs, int32(nodeCh+2*d+dirs[d]))
			fracs = append(fracs, s.fracs[ei])
			ei++
		}
	}
	return chs, fracs
}

// scratch holds the per-call working storage of MinimalAdaptive.AddLoads,
// PairTable and DispTable, recycled through a pool so the hot dense
// evaluators (annealing swaps, greedy completion) do not allocate per flow.
type scratch struct {
	cs, cd, dirs, dists, ties []int
	// shape, strides, u, tabOff and p are buildStencil's working storage;
	// own holds the stencil of a box the cache does not serve.
	shape, strides, u, tabOff []int
	p                         []float64
	own                       stencil
	// tab holds a stencil's per-flow channel-base table; chanOff holds the
	// per-dimension channel-id remainder 2*d+dirs[d] for the current flow.
	tab, chanOff []int
	// memoKey/memoVal form a direct-mapped stencil memo that short-circuits
	// the process-wide sync.Map on repeat displacement vectors.
	memoKey [stencilMemoSize]uint64
	memoVal [stencilMemoSize]*stencil
	// nhits/nmisses batch the cache accounting of one AddLoads call or
	// table build as plain ints; flushStencil drains them once per call
	// into the striped handles below.
	nhits, nmisses int64
	// hits/misses are striped process-wide cache-counter handles, claimed
	// once per scratch so the per-call flush adds without cross-CPU
	// contention.
	hits, misses *telemetry.LocalCounter
	// scopeKey/scopeHits/scopeMisses cache striped handles of a request
	// scope's counters; re-claimed only when the scratch migrates to a
	// different scope (scopeKey is the scope's hit counter, used as the
	// scope identity).
	scopeKey               *telemetry.Counter
	scopeHits, scopeMisses *telemetry.LocalCounter
}

// flushStencil drains the call-batched hit/miss counts: into the request
// scope's counters when the evaluator is scoped, into the process-wide
// striped handles otherwise. The scoped path costs one pointer compare per
// call; Local handles are claimed only when the scratch changes scopes.
func (sc *scratch) flushStencil(a MinimalAdaptive) {
	if sc.nhits == 0 && sc.nmisses == 0 {
		return
	}
	h, m := sc.hits, sc.misses
	if a.hits != nil {
		if sc.scopeKey != a.hits {
			sc.scopeKey = a.hits
			sc.scopeHits = a.hits.Local()
			sc.scopeMisses = a.misses.Local()
		}
		h, m = sc.scopeHits, sc.scopeMisses
	}
	h.Add(sc.nhits)
	m.Add(sc.nmisses)
	sc.nhits, sc.nmisses = 0, 0
}

const (
	stencilMemoBits = 7
	stencilMemoSize = 1 << stencilMemoBits
)

var scratchPool = sync.Pool{New: func() interface{} {
	return &scratch{
		hits:   ctrStencilHits.Local(),
		misses: ctrStencilMisses.Local(),
	}
}}

func getScratch(nd int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.cs = grow(sc.cs, nd)
	sc.cd = grow(sc.cd, nd)
	sc.dirs = grow(sc.dirs, nd)
	sc.dists = grow(sc.dists, nd)
	sc.shape = grow(sc.shape, nd)
	sc.strides = grow(sc.strides, nd)
	sc.u = grow(sc.u, nd)
	sc.tabOff = grow(sc.tabOff, nd)
	sc.chanOff = grow(sc.chanOff, nd)
	return sc
}

// ints returns an integer scratch of length n (contents undefined).
func (sc *scratch) ints(n int) []int {
	if cap(sc.tab) < n {
		sc.tab = make([]int, n)
	}
	return sc.tab[:n]
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// floats returns a zeroed float scratch of length n from the pool entry.
func (sc *scratch) floats(n int) []float64 {
	if cap(sc.p) < n {
		sc.p = make([]float64, n)
	}
	sc.p = sc.p[:n]
	for i := range sc.p {
		sc.p[i] = 0
	}
	return sc.p
}
