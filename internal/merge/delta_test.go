package merge

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// deltaChildren builds nchild blocks of tpc tasks each by merging
// single-task leaves on the child cube, so every child carries a beam of
// candidates (not just one) and the byte-identity test exercises the
// ChildCandidates dimension. Construction is deterministic, so both arms of
// the comparison see identical children.
func deltaChildren(t testing.TB, g *graph.Comm, nchild, tpc int, childShape []int) []*Block {
	t.Helper()
	ones := make([]int, len(childShape))
	for d := range ones {
		ones[d] = 1
	}
	children := make([]*Block, nchild)
	for i := 0; i < nchild; i++ {
		leaves := make([]*Block, tpc)
		pins := make([]int, tpc)
		for j := 0; j < tpc; j++ {
			leaves[j] = NewLeafBlock([]int{i*tpc + j}, ones, topology.Mapping{0}, 0)
			pins[j] = j
		}
		blk, err := Merge(g, leaves, childShape, pins, Config{BeamWidth: 4, MaxOrientations: 8})
		if err != nil {
			t.Fatal(err)
		}
		children[i] = blk
	}
	return children
}

// wantSameBlock asserts got is byte-identical to want: same candidate
// count and order, bitwise-equal MCLs, identical local mappings, same
// Degraded flag. This is the delta-evaluation contract — == on float64 is
// deliberate.
func wantSameBlock(t *testing.T, want, got *Block, label string) {
	t.Helper()
	if got.Degraded != want.Degraded {
		t.Fatalf("%s: degraded %v, want %v", label, got.Degraded, want.Degraded)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		//rahtm:allow(floateq): byte-identity is the contract under test, not a tolerance check
		if got.Candidates[i].MCL != want.Candidates[i].MCL {
			t.Fatalf("%s: candidate %d MCL %v, want %v (bitwise)",
				label, i, got.Candidates[i].MCL, want.Candidates[i].MCL)
		}
		if len(got.Candidates[i].Local) != len(want.Candidates[i].Local) {
			t.Fatalf("%s: candidate %d mapping length differs", label, i)
		}
		for j, p := range want.Candidates[i].Local {
			if got.Candidates[i].Local[j] != p {
				t.Fatalf("%s: candidate %d task %d at %d, want %d",
					label, i, j, got.Candidates[i].Local[j], p)
			}
		}
	}
}

// TestMergeDeltaByteIdentical pins the scoring contract the package comment
// promises: at every beam width, parallelism and reposition setting, the
// bound-pruned sparse scorer produces candidates byte-identical — bitwise
// MCL, same mappings, same order — to the unbounded dense reference
// (oracleMerge). It doubles as the Parallelism 1-vs-8 beam determinism
// regression for the deterministic topN/combo tie-breaks and checks the
// exact work counters: every combo is either scored in full or abandoned,
// and both counts are the same at any parallelism.
func TestMergeDeltaByteIdentical(t *testing.T) {
	scenarios := []struct {
		name       string
		childShape []int
		cubeShape  []int
		torus      bool
		unitVol    bool // every flow has volume 1: many equal scores
		childCands int  // Config.ChildCandidates (0 = 2)
		maxOrients int  // Config.MaxOrientations (0 = 8, -1 = the default, all)
		beams      []int
		reposition []bool
	}{
		// Parent 4x4x4, 384 channels.
		{
			name:       "3d-4x4x4",
			childShape: []int{2, 2, 2},
			cubeShape:  []int{2, 2, 2},
			beams:      []int{1, 2, 8},
			reposition: []bool{false, true},
		},
		// The paper's 16,384-process shape scaled to one top-level merge:
		// parent 4x4x4x4x2 with a 1-extent child dimension.
		{
			name:       "5d-4x4x4x4x2",
			childShape: []int{2, 2, 2, 2, 1},
			cubeShape:  []int{2, 2, 2, 2, 2},
			beams:      []int{4},
			reposition: []bool{false},
		},
		// Wrapped evaluation (k=4 dims tie at distance 2) on a small
		// channel space.
		{
			name:       "torus-4x4x2",
			childShape: []int{2, 2, 2},
			cubeShape:  []int{2, 2, 1},
			torus:      true,
			beams:      []int{1, 8},
			reposition: []bool{false, true},
		},
		// The default configuration: beam 64, 4 child candidates, all 48
		// orientations of a 2x2x2 child.
		{
			name:       "default-4x4x4",
			childShape: []int{2, 2, 2},
			cubeShape:  []int{2, 2, 2},
			torus:      true,
			childCands: 4,
			maxOrients: -1,
			beams:      []int{64},
			reposition: []bool{false},
		},
		// Unit volumes on a torus: scores collide at the cutoff, so the
		// strict abandonment test and the placement-key tie-break decide
		// which equal-score combos survive.
		{
			name:       "ties-4x4x4",
			childShape: []int{2, 2, 2},
			cubeShape:  []int{2, 2, 2},
			torus:      true,
			unitVol:    true,
			childCands: 4,
			maxOrients: -1,
			beams:      []int{1, 8, 64},
			reposition: []bool{false},
		},
		{
			name:       "ties-repos-4x4x4",
			childShape: []int{2, 2, 2},
			cubeShape:  []int{2, 2, 2},
			torus:      true,
			unitVol:    true,
			beams:      []int{1, 8},
			reposition: []bool{true},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			nchild := 1
			for _, k := range sc.cubeShape {
				nchild *= k
			}
			tpc := 1
			for _, k := range sc.childShape {
				tpc *= k
			}
			n := nchild * tpc
			rng := rand.New(rand.NewSource(int64(1000 + n)))
			g := graph.New(n)
			for e := 0; e < 4*n; e++ {
				vol := float64(1 + rng.Intn(9))
				if sc.unitVol {
					vol = 1
				}
				g.AddTraffic(rng.Intn(n), rng.Intn(n), vol)
			}
			pins := rng.Perm(nchild)

			var abandoned int64
			for _, bw := range sc.beams {
				for _, repos := range sc.reposition {
					cfg := Config{
						BeamWidth:       bw,
						ChildCandidates: 2,
						MaxOrientations: 8,
						Torus:           sc.torus,
						Reposition:      repos,
					}
					if sc.childCands > 0 {
						cfg.ChildCandidates = sc.childCands
					}
					if sc.maxOrients < 0 {
						cfg.MaxOrientations = 0
					}
					label := fmt.Sprintf("bw=%d repos=%v", bw, repos)
					want := oracleMerge(t, g, deltaChildren(t, g, nchild, tpc, sc.childShape), sc.cubeShape, pins, cfg)
					var counts map[string]int64
					for _, par := range []int{1, 8} {
						c := cfg
						c.Parallelism = par
						scope := telemetry.NewScope("")
						blk, err := MergeCtx(telemetry.WithScope(context.Background(), scope), g,
							deltaChildren(t, g, nchild, tpc, sc.childShape), sc.cubeShape, pins, c)
						if err != nil {
							t.Fatal(err)
						}
						wantSameBlock(t, want, blk, fmt.Sprintf("%s par=%d", label, par))
						got := workCounts(scope)
						if got[telemetry.CtrDeltaHits]+got[telemetry.CtrBeamAbandoned] != got[telemetry.CtrBeamCandidates] {
							t.Fatalf("%s par=%d: delta hits + abandoned != candidates: %v", label, par, got)
						}
						if counts == nil {
							counts = got
						} else if !reflect.DeepEqual(got, counts) {
							t.Fatalf("%s: par=8 counters %v, par=1 %v", label, got, counts)
						}
					}
					abandoned += counts[telemetry.CtrBeamAbandoned]
				}
			}
			if sc.maxOrients < 0 && abandoned == 0 {
				t.Fatalf("no combo was abandoned: the bound was never exercised")
			}
		})
	}
}

// workCounts returns the merge's exact work counters recorded in scope.
func workCounts(scope *telemetry.Scope) map[string]int64 {
	snap := scope.Snapshot()
	out := map[string]int64{}
	for _, name := range []string{
		telemetry.CtrBeamCandidates, telemetry.CtrBeamKept, telemetry.CtrBeamAbandoned,
		telemetry.CtrDeltaHits, telemetry.CtrSymmetryEvals, telemetry.CtrSymmetryAbandoned,
	} {
		out[name] = snap.Counter(name)
	}
	return out
}

// TestTopNDeterministicTieBreak pins the beam truncation tie-break: states
// with equal MCL are ordered by their packed choice key, so which of them
// survives a narrow beam never depends on arrival order (and hence not on
// scoring-worker scheduling).
func TestTopNDeterministicTieBreak(t *testing.T) {
	mk := func(mcl float64, key ...uint64) *state {
		return &state{mcl: mcl, key: key}
	}
	a := mk(5, 1, 2)
	b := mk(5, 1, 3)
	c := mk(5, 0, 9)
	d := mk(4, 7, 7)
	for _, order := range [][]*state{{a, b, c, d}, {d, c, b, a}, {b, d, a, c}} {
		in := append([]*state(nil), order...)
		got := topN(in, 2)
		if len(got) != 2 || got[0] != d || got[1] != c {
			t.Fatalf("order %v: topN kept %v, want [d c]", order, got)
		}
	}
}
