package routing

// Displacement deposit tables for the Phase 3 merge scorers.
//
// A flow's minimal-adaptive deposits depend only on its displacement, up to
// a translation of the source: prepareFlow derives the directions, ties and
// stencil from per-dimension coordinate differences — (b−a) mod k on a
// wrapped dimension, the signed b−a on a mesh dimension — and the stencil
// walk visits the same box offsets from any source. A DispTable records the
// deposit sequence of one representative flow per displacement class, with
// every channel stored as an offset from the source, so routing a flow
// becomes a key lookup plus a flat walk over (offset, fraction) entries. The
// per-flow prelude AddLoads pays — scratch get/put, CoordOf, directions,
// stencil lookup, fillChanTab — is paid once per class when the table is
// built.
//
// Offsets live in a doubled coordinate space: along dimension d a virtual
// coordinate runs over [0, 2k−1). Each offset is stored mod k, so a source
// coordinate c < k plus its offset stays inside that space, and one
// precomputed map folds each virtual channel back onto the real channel
// with coordinates mod k. On a wrapped dimension that is the wrap itself;
// a mesh flow never leaves [0, k), so there the fold undoes the mod. The
// same (2k−1)-radix space indexes coordinate differences, which range over
// (−k, k), so one per-node coordinate key serves both lookups.

import (
	"rahtm/internal/topology"
)

// DispTable holds, for every displacement class of a topology, the exact
// deposit sequence MinimalAdaptive.AddLoads makes for a flow of that class:
// every direction combination prepareFlow admits, in mask order, each
// contributing its stencil's cells in stencil order. AddDelta divides the
// volume by the class's combination count and adds frac*cv per entry — the
// same operations, in the same order, as AddLoads into a zeroed vector — so
// a flow's per-channel totals match AddLoads bit for bit.
//
// Every combination of a class deposits the stencil's fractions in the same
// order, so a row stores one channel offset per deposit and shares the
// stencil's fraction list. Its size is the number of classes times the
// deposits per flow (2,178 offsets on a 4x4x4 torus) plus a virtual-to-real
// channel map of 2nd·Π(2k−1) slots; it does not grow with the square of
// the node count as a PairTable does. It is immutable once built and safe
// for concurrent use.
type DispTable struct {
	nd2 int32
	// key[x] is node x's coordinate key: the sum over d of its coordinate
	// times the d-th stride of the (2k−1)-radix space. A flow a→b has class
	// key key[b]−key[a]+keyOff, which row[] maps to its displacement
	// class, and its source's virtual channel base is key[a]·2nd.
	key    []int32
	keyOff int32
	row    []int32
	// vmap resolves a virtual channel id to the real one.
	vmap []int32
	// Row r's deposits are off[start[r]:start[r+1]]: div[r] direction
	// combinations, each one channel offset per entry of fracs[r] (the
	// stencil's unit fractions, in stencil order).
	start []int32
	div   []float64
	fracs [][]float64
	off   []int32
}

// DispTable builds the displacement deposit table of t through the same
// flow prelude as AddLoads, routing one representative flow per class. Its
// stencil lookups are accounted like AddLoads calls (to a's scope when a is
// scoped).
func (a MinimalAdaptive) DispTable(t *topology.Torus) *DispTable {
	nd := t.NumDims()
	nd2 := 2 * nd
	n := t.N()

	// Strides of the (2k−1)-radix key/virtual space and of the class
	// space (radix k wrapped, 2k−1 mesh), both row-major.
	stride := make([]int, nd)
	clsStride := make([]int, nd)
	keys, classes := 1, 1
	for d := nd - 1; d >= 0; d-- {
		k := t.Dim(d)
		stride[d], clsStride[d] = keys, classes
		keys *= 2*k - 1
		if t.Wrap(d) {
			classes *= k
		} else {
			classes *= 2*k - 1
		}
	}

	dt := &DispTable{
		nd2:   int32(nd2),
		key:   make([]int32, n),
		row:   make([]int32, keys),
		vmap:  make([]int32, keys*nd2),
		start: make([]int32, 1, classes+1),
		div:   make([]float64, classes),
		fracs: make([][]float64, classes),
	}
	coord := make([]int, nd)
	for x := 0; x < n; x++ {
		coord = t.CoordOf(x, coord)
		kx := 0
		for d, c := range coord {
			kx += c * stride[d]
		}
		dt.key[x] = int32(kx)
	}
	for d := 0; d < nd; d++ {
		dt.keyOff += int32((t.Dim(d) - 1) * stride[d])
	}

	// One pass over the (2k−1)-radix space fills both maps. As a virtual
	// node v (coordinates in [0, 2k−1)) it wraps to the real node with
	// coordinates mod k. As a class key it is a coordinate difference
	// δ = v_d − (k−1) in (−k, k), of class δ mod k on a wrapped dimension
	// and δ on a mesh one.
	for v := 0; v < keys; v++ {
		rank, r := 0, 0
		for d := 0; d < nd; d++ {
			k := t.Dim(d)
			c := v / stride[d] % (2*k - 1)
			rank += c % k * t.Stride(d)
			if t.Wrap(d) {
				r += (c + 1) % k * clsStride[d]
			} else {
				r += c * clsStride[d]
			}
		}
		dt.row[v] = int32(r)
		for j := 0; j < nd2; j++ {
			dt.vmap[v*nd2+j] = int32(rank*nd2 + j)
		}
	}

	// One representative flow per class: source at the origin on wrapped
	// dimensions, and at max(0, −δ) on mesh ones so the destination exists.
	sc := getScratch(nd)
	defer putScratch(sc)
	src := make([]int, nd)
	dst := make([]int, nd)
	node := make([]int, nd)
	var chs []int32
	var fracs []float64
	for r := 0; r < classes; r++ {
		for d := 0; d < nd; d++ {
			k := t.Dim(d)
			delta := r / clsStride[d]
			if t.Wrap(d) {
				delta %= k
				src[d], dst[d] = 0, delta
			} else {
				delta = delta%(2*k-1) - (k - 1)
				src[d] = max(0, -delta)
				dst[d] = src[d] + delta
			}
		}
		s, d := t.RankOf(src), t.RankOf(dst)
		combos := 1
		if s != d {
			var st *stencil
			st, combos = sc.prepareFlow(t, s, d)
			// A published stencil is immutable and never unpublished, so
			// the row can share its fractions; sc.own is reused by the
			// next uncached box, so its fractions are copied.
			dt.fracs[r] = st.fracs
			if st == &sc.own {
				dt.fracs[r] = append([]float64(nil), st.fracs...)
			}
			chs, fracs = chs[:0], fracs[:0]
			for mask := 0; mask < combos; mask++ {
				sc.setCombo(mask)
				chs, fracs = st.appendDeposits(t, sc.cs, sc.dirs, chs, fracs, sc)
			}
			for _, ch := range chs {
				node = t.CoordOf(int(ch)/nd2, node)
				o := 0
				for dd := 0; dd < nd; dd++ {
					u := node[dd] - src[dd]
					if u < 0 {
						u += t.Dim(dd)
					}
					o += u * stride[dd]
				}
				dt.off = append(dt.off, int32(o*nd2+int(ch)%nd2))
			}
		}
		dt.div[r] = float64(combos)
		dt.start = append(dt.start, int32(len(dt.off)))
	}
	sc.flushStencil(a)
	dt.off = append([]int32(nil), dt.off...) // drop the growth slack
	return dt
}

// AddDelta adds the deposits of vol units routed from node a to node b into
// dv, exactly as AddLoads would add them into a zeroed dense vector: the
// same channels, the same values, in the same order. A negative vol
// subtracts.
func (dt *DispTable) AddDelta(a, b int, vol float64, dv *DeltaVec) {
	if a == b || vol == 0 {
		return
	}
	r := dt.row[dt.key[b]-dt.key[a]+dt.keyOff]
	cv := vol / dt.div[r]
	vmap := dt.vmap[dt.key[a]*dt.nd2:]
	fracs := dt.fracs[r]
	off := dt.off[dt.start[r]:dt.start[r+1]]
	for len(off) > 0 {
		o := off[:len(fracs)]
		for i, f := range fracs {
			dv.Add(int(vmap[o[i]]), f*cv)
		}
		off = off[len(fracs):]
	}
}
