package routing

import (
	"math"
	"math/rand"
	"testing"

	"rahtm/internal/topology"
)

// TestDeltaVecBasics exercises the sparse accumulator invariants.
func TestDeltaVecBasics(t *testing.T) {
	dv := NewDeltaVec(8)
	if dv.Size() != 8 || dv.NumTouched() != 0 || dv.Max() != 0 {
		t.Fatalf("fresh DeltaVec: size=%d touched=%d max=%v", dv.Size(), dv.NumTouched(), dv.Max())
	}
	dv.Add(3, 1.5)
	dv.Add(5, 2.0)
	dv.Add(3, 0.5)
	if got := dv.Value(3); got != 2.0 {
		t.Fatalf("Value(3) = %v, want 2", got)
	}
	if got := dv.Value(0); got != 0 {
		t.Fatalf("Value(0) = %v, want 0", got)
	}
	if dv.NumTouched() != 2 {
		t.Fatalf("NumTouched = %d, want 2", dv.NumTouched())
	}
	if dv.Max() != 2.0 {
		t.Fatalf("Max = %v, want 2", dv.Max())
	}
	base := []float64{0, 0, 0, 1, 0, 0.25, 0, 0}
	if got := dv.MaxOver(base, 1); got != 3.0 {
		t.Fatalf("MaxOver = %v, want 3", got)
	}
	dense := make([]float64, 8)
	dv.AddTo(dense)
	if dense[3] != 2.0 || dense[5] != 2.0 {
		t.Fatalf("AddTo: %v", dense)
	}

	dv.Reset()
	if dv.NumTouched() != 0 || dv.Value(3) != 0 {
		t.Fatalf("after Reset: touched=%d val3=%v", dv.NumTouched(), dv.Value(3))
	}
	dv.Add(3, 7)
	if dv.Value(3) != 7 || dv.NumTouched() != 1 {
		t.Fatalf("after Reset+Add: val3=%v touched=%d", dv.Value(3), dv.NumTouched())
	}
}

func TestDeltaVecSnapshotTranslate(t *testing.T) {
	dv := NewDeltaVec(32)
	dv.Add(2, 0.75)
	dv.Add(9, 1.25)
	dv.Add(2, 0.25)
	snap := dv.Snapshot()
	if len(snap.Ch) != 2 || len(snap.Val) != 2 {
		t.Fatalf("snapshot shape: %+v", snap)
	}

	// Replay shifted by 10 into a fresh accumulator.
	dv2 := NewDeltaVec(32)
	dv2.AddSnapshot(snap, 10)
	if dv2.Value(12) != 1.0 || dv2.Value(19) != 1.25 {
		t.Fatalf("AddSnapshot: ch12=%v ch19=%v", dv2.Value(12), dv2.Value(19))
	}

	dense := make([]float64, 32)
	snap.AddSnapshotTo(dense, 10)
	if dense[12] != 1.0 || dense[19] != 1.25 {
		t.Fatalf("AddSnapshotTo: %v %v", dense[12], dense[19])
	}

	// Snapshot is frozen: resetting the source must not affect it.
	dv.Reset()
	if snap.Val[0] != 1.0 && snap.Val[1] != 1.0 {
		t.Fatalf("snapshot mutated by Reset: %+v", snap)
	}
}

// TestAddLoadsDeltaBitwise asserts the core contract of the sparse sink:
// for any flow, the per-channel totals DispTable.AddDelta deposits into a
// DeltaVec are bit-identical (==, not approximately equal) to the totals
// AddLoads deposits into a zeroed dense vector. Covers wrap ties (torus
// distance exactly k/2), mesh dimensions, and a 600-node ring whose longer
// flows exceed the stencil key's distance bound, so the cache refuses their
// boxes. The "direct" arm runs first with the cache's cell budget full, so
// every box the cache does not already hold is routed — and recorded into
// the table — by an uncached stencil; the "cached" arm then publishes and
// reuses them.
func TestAddLoadsDeltaBitwise(t *testing.T) {
	shapes := []struct {
		name string
		topo *topology.Torus
	}{
		{"torus-4x4", topology.NewTorus(4, 4)},
		{"mesh-5x3", topology.NewMesh(5, 3)},
		{"torus-4x4x4", topology.NewTorus(4, 4, 4)},
		{"torus-4x4x4x4x2", topology.NewTorus(4, 4, 4, 4, 2)},
		{"ring-600", topology.NewTorus(600)},
	}
	alg := MinimalAdaptive{}
	for _, arm := range []string{"direct", "cached"} {
		release := func() {}
		if arm == "direct" {
			release = fillStencilBudget()
		}
		for _, sh := range shapes {
			t.Run(arm+"/"+sh.name, func(t *testing.T) {
				topo := sh.topo
				dt := alg.DispTable(topo)
				rng := rand.New(rand.NewSource(7))
				n := topo.N()
				dense := make([]float64, topo.NumChannels())
				dv := NewDeltaVec(topo.NumChannels())
				for trial := 0; trial < 50; trial++ {
					src := rng.Intn(n)
					dst := rng.Intn(n)
					vol := 1 + rng.Float64()*9
					for i := range dense {
						dense[i] = 0
					}
					alg.AddLoads(topo, src, dst, vol, dense)
					dv.Reset()
					dt.AddDelta(src, dst, vol, dv)

					nz := 0
					for ch, want := range dense {
						if want != 0 {
							nz++
						}
						if got := dv.Value(ch); got != want {
							t.Fatalf("trial %d flow %d->%d vol %v: ch %d delta %v dense %v (diff %g)",
								trial, src, dst, vol, ch, got, want, math.Abs(got-want))
						}
					}
					if dv.NumTouched() < nz {
						t.Fatalf("trial %d: delta touched %d channels, dense has %d non-zero",
							trial, dv.NumTouched(), nz)
					}
					// And the sparse max equals the dense MCL bitwise.
					if got, want := dv.Max(), MCL(dense); got != want {
						t.Fatalf("trial %d: sparse max %v, dense MCL %v", trial, got, want)
					}
				}
			})
		}
		release()
	}
}

// TestRefusedBoxNoAllocs pins that a box the cache refuses — a 600-node
// ring flow over 280 hops, past the key's distance bound — is routed
// through the scratch-owned stencil without allocating once warm, and that
// replaying its recorded deposits from a DispTable does not allocate
// either. The race detector makes sync.Pool drop entries, so the check runs
// only in normal builds.
func TestRefusedBoxNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	tp := topology.NewTorus(600)
	if _, ok := stencilKey([]int{280}); ok {
		t.Fatal("280 hops must exceed the stencil key's distance bound")
	}
	alg := MinimalAdaptive{}
	loads := make([]float64, tp.NumChannels())
	dv := NewDeltaVec(tp.NumChannels())
	dt := alg.DispTable(tp)
	for name, fn := range map[string]func(){
		"AddLoads": func() { alg.AddLoads(tp, 0, 280, 1, loads) },
		"AddDelta": func() {
			dv.Reset()
			dt.AddDelta(0, 280, 1, dv)
		},
	} {
		fn()
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on a refused box, want 0", name, allocs)
		}
	}
}

// TestAddLoadsDeltaTieEnumeration pins the wrap-tie case explicitly: on a
// 4-ring, distance 2 admits both directions and the flow splits.
func TestAddLoadsDeltaTieEnumeration(t *testing.T) {
	topo := topology.NewTorus(4)
	alg := MinimalAdaptive{}
	dense := make([]float64, topo.NumChannels())
	alg.AddLoads(topo, 0, 2, 8, dense)
	dv := NewDeltaVec(topo.NumChannels())
	alg.DispTable(topo).AddDelta(0, 2, 8, dv)
	for ch, want := range dense {
		if got := dv.Value(ch); got != want {
			t.Fatalf("ch %d: delta %v dense %v", ch, got, want)
		}
	}
	// Both directions carry half the volume across two hops each.
	if dv.NumTouched() != 4 {
		t.Fatalf("tie flow should touch 4 channels, touched %d", dv.NumTouched())
	}
}

// TestDeltaVecPeakMatchesMaxOver pins the running-max bound the merge
// scorers prune with: after ResetOver(base, floor), the peak after every
// flow is at most the peak after the last one, and the final peak equals
// MaxOver(base, floor) bit for bit. A plain Reset tracks Max the same way.
func TestDeltaVecPeakMatchesMaxOver(t *testing.T) {
	topo := topology.NewTorus(4, 4, 4)
	dt := MinimalAdaptive{}.DispTable(topo)
	rng := rand.New(rand.NewSource(11))
	n := topo.N()
	base := make([]float64, topo.NumChannels())
	dv := NewDeltaVec(topo.NumChannels())
	for trial := 0; trial < 40; trial++ {
		for ch := range base {
			base[ch] = float64(rng.Intn(4)) * (1 + rng.Float64())
		}
		floor := MCL(base)
		for _, over := range []bool{true, false} {
			if over {
				dv.ResetOver(base, floor)
			} else {
				dv.Reset()
			}
			var partial []float64
			for f := 0; f < 12; f++ {
				dt.AddDelta(rng.Intn(n), rng.Intn(n), 1+rng.Float64()*9, dv)
				partial = append(partial, dv.Peak())
			}
			want := dv.Max()
			if over {
				want = dv.MaxOver(base, floor)
			}
			if got := dv.Peak(); got != want {
				t.Fatalf("trial %d over=%v: peak %v, want %v (bitwise)", trial, over, got, want)
			}
			for i, p := range partial {
				if p > want {
					t.Fatalf("trial %d over=%v: partial peak %d = %v exceeds final %v", trial, over, i, p, want)
				}
				if i > 0 && p < partial[i-1] {
					t.Fatalf("trial %d over=%v: peak fell from %v to %v", trial, over, partial[i-1], p)
				}
			}
		}
	}
}
