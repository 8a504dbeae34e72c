package routing

// Sparse delta evaluation for incremental MCL scoring.
//
// The Phase 3 beam merger scores hundreds of thousands of candidate
// placements per merge step. Scoring with dense channel-load vectors costs
// O(NumChannels) per candidate just to copy, zero and scan the vector, even
// though each candidate only perturbs the handful of channels its flows
// actually traverse — on the paper's 16,384-process configuration the dense
// bookkeeping dwarfs the routing work itself. DeltaVec is the sparse
// accumulator that removes it (the sparse quadratic-assignment framing of
// Schulz & Träff): generation-stamped so Reset is O(touched), it records
// exactly which channels a candidate's flows deposit load on, letting the
// merger score a candidate as
//
//	max(baseMCL, max over touched ch of base[ch] + delta[ch])
//
// which is exact for non-negative deltas because untouched channels cannot
// exceed the base maximum.
//
// The accumulator also keeps that score as a running peak: ResetOver binds
// the base vector and its maximum, and every Add folds base[ch]+delta[ch]
// into the peak. Deposits are non-negative and IEEE addition is monotone,
// so the peak after any prefix of a candidate's deposits is a lower bound on
// its final score, and once all deposits are in it equals that score bit
// for bit. The merger abandons a candidate as soon as that bound shows it cannot
// survive the beam cutoff.
//
// DispTable.AddDelta, the merge scorers' sparse sink, replays deposit
// sequences recorded by AddLoads' own flow prelude (directions, ties,
// stencil) in AddLoads' deposit order, so for any flow the per-channel
// totals accumulated into a DeltaVec are bit-identical to the totals the
// dense path accumulates from a zeroed vector. Delta evaluation is
// therefore byte-exact against a full recomputation, not merely
// approximately equal.

// DeltaVec is a sparse accumulator over a dense channel space. The zero
// value is not usable; construct with NewDeltaVec. Not safe for concurrent
// use — scoring workers each own one.
type DeltaVec struct {
	vals    []float64
	stamp   []uint64
	gen     uint64
	touched []int32
	// base is the dense vector the deltas are scored against (zeros after
	// a plain Reset); peak is max(floor, base[ch]+vals[ch]) over every
	// deposit since the last reset.
	base, zero []float64
	peak       float64
}

// NewDeltaVec returns an empty accumulator over n channels.
func NewDeltaVec(n int) *DeltaVec {
	zero := make([]float64, n)
	return &DeltaVec{
		vals:  make([]float64, n),
		stamp: make([]uint64, n),
		gen:   1,
		base:  zero,
		zero:  zero,
	}
}

// Size returns the dense channel-space size.
func (v *DeltaVec) Size() int { return len(v.vals) }

// Reset forgets all accumulated deltas in O(1) and scores the peak against
// an all-zero base with floor 0, so Peak tracks the largest delta.
func (v *DeltaVec) Reset() { v.ResetOver(v.zero, 0) }

// ResetOver forgets all accumulated deltas and scores the peak against base
// (one value per channel; read, never written) starting from floor, which
// should be the maximum of base. Peak then tracks the score
// max(floor, max over touched ch of base[ch]+delta[ch]).
func (v *DeltaVec) ResetOver(base []float64, floor float64) {
	v.gen++
	v.touched = v.touched[:0]
	v.base = base
	v.peak = floor
}

// Add accumulates x onto channel ch, marking it touched, and raises the
// peak to base[ch] plus the channel's new total if that is higher.
func (v *DeltaVec) Add(ch int, x float64) {
	if v.stamp[ch] != v.gen {
		v.stamp[ch] = v.gen
		v.vals[ch] = x
		v.touched = append(v.touched, int32(ch))
	} else {
		v.vals[ch] += x
	}
	if p := v.base[ch] + v.vals[ch]; p > v.peak {
		v.peak = p
	}
}

// Peak returns the running maximum of the floor and base[ch]+delta[ch] over
// the deposits since the last reset. With non-negative deposits it never
// exceeds the final score, and it equals that score bit for bit once every
// deposit has been added.
func (v *DeltaVec) Peak() float64 { return v.peak }

// Value returns the accumulated delta on ch (0 when untouched).
func (v *DeltaVec) Value(ch int) float64 {
	if v.stamp[ch] != v.gen {
		return 0
	}
	return v.vals[ch]
}

// AddTo adds the accumulated deltas into the dense vector loads.
func (v *DeltaVec) AddTo(loads []float64) {
	for _, ch := range v.touched {
		loads[ch] += v.vals[ch]
	}
}

// Snapshot is a frozen copy of a DeltaVec's contents: parallel channel and
// value slices. Each channel appears exactly once, so replaying a snapshot
// (AddSnapshot) reproduces the accumulated per-channel totals bit-exactly
// regardless of entry order.
type Snapshot struct {
	Ch  []int32
	Val []float64
}

// Snapshot freezes the current contents.
func (v *DeltaVec) Snapshot() Snapshot {
	s := Snapshot{
		Ch:  make([]int32, len(v.touched)),
		Val: make([]float64, len(v.touched)),
	}
	copy(s.Ch, v.touched)
	for i, ch := range v.touched {
		s.Val[i] = v.vals[ch]
	}
	return s
}

// AddSnapshot replays a snapshot into the accumulator with every channel id
// shifted by chOff (translation of the pattern to a different box origin).
func (v *DeltaVec) AddSnapshot(s Snapshot, chOff int) {
	for i, ch := range s.Ch {
		v.Add(int(ch)+chOff, s.Val[i])
	}
}
