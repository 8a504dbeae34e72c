package routing

import (
	"math"
	"testing"

	"rahtm/internal/topology"
)

// dispTableTopologies covers wrapped, mesh and mixed shapes with odd and
// even extents, including 1- and 2-wide dimensions (a 2-wide wrapped
// dimension always ties).
func dispTableTopologies() []*topology.Torus {
	return []*topology.Torus{
		topology.NewTorus(4, 4, 4),
		topology.NewMesh(4, 4, 4),
		topology.NewTorus(8, 4),
		topology.NewTorus(4, 4, 2),
		topology.NewMesh(3, 5, 2),
		topology.NewTorus(2, 2, 2, 2),
		topology.NewTorus(6, 5),
		topology.NewTorus(4, 1, 3),
		topology.NewMesh(1, 2, 3),
		topology.NewMixed([]int{4, 3, 2}, []bool{true, false, true}),
		topology.NewMixed([]int{5, 2, 1}, []bool{false, true, true}),
	}
}

// TestDispTableMatchesAddLoads adds every ordered pair of every shape into
// a fresh DeltaVec and requires each channel to equal what AddLoads
// deposits into a zeroed dense vector, bit for bit, for positive and
// negative volumes. The "direct" arm builds its tables with the stencil
// cache's cell budget full, so every class the cache does not already hold
// is recorded from an uncached stencil.
func TestDispTableMatchesAddLoads(t *testing.T) {
	alg := MinimalAdaptive{}
	for _, arm := range []string{"direct", "cached"} {
		release := func() {}
		if arm == "direct" {
			release = fillStencilBudget()
		}
		for _, tp := range dispTableTopologies() {
			t.Run(arm+"/"+tp.String(), func(t *testing.T) {
				dt := alg.DispTable(tp)
				dense := make([]float64, tp.NumChannels())
				dv := NewDeltaVec(tp.NumChannels())
				for a := 0; a < tp.N(); a++ {
					for b := 0; b < tp.N(); b++ {
						for _, vol := range []float64{1, 7.3, 1.0 / 3, -2.9} {
							clear(dense)
							alg.AddLoads(tp, a, b, vol, dense)
							dv.Reset()
							dt.AddDelta(a, b, vol, dv)
							nz := 0
							for ch, want := range dense {
								if want != 0 {
									nz++
								}
								if got := dv.Value(ch); math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("pair (%d,%d) vol %v channel %d: AddDelta %.17g, AddLoads %.17g",
										a, b, vol, ch, got, want)
								}
							}
							if dv.NumTouched() != nz {
								t.Fatalf("pair (%d,%d) vol %v: touched %d channels, AddLoads loaded %d",
									a, b, vol, dv.NumTouched(), nz)
							}
						}
					}
				}
			})
		}
		release()
	}
}

// TestDispTableSize pins the table's footprint on the shapes the design
// notes quote: entries scale with the number of displacement classes, not
// with the square of the node count.
func TestDispTableSize(t *testing.T) {
	for _, c := range []struct {
		tp          *topology.Torus
		entries     int
		vmap, pairs int
	}{
		{topology.NewTorus(4, 4, 4), 2178, 2058, 139392},
		{topology.NewTorus(4, 4, 4, 4), 31944, 19208, 0},
	} {
		dt := MinimalAdaptive{}.DispTable(c.tp)
		if len(dt.off) != c.entries || len(dt.vmap) != c.vmap {
			t.Errorf("%v: %d entries and %d map slots, want %d and %d",
				c.tp, len(dt.off), len(dt.vmap), c.entries, c.vmap)
		}
		if c.pairs > 0 {
			if pt := (MinimalAdaptive{}).PairTable(c.tp); len(pt.ch) != c.pairs {
				t.Errorf("%v: PairTable has %d entries, want %d", c.tp, len(pt.ch), c.pairs)
			}
		}
	}
}

// BenchmarkDispTableAddDelta routes a warm 4x4x4 flow mix through the
// table. It must not allocate; CI's allocation gate fails on any nonzero
// allocs/op.
func BenchmarkDispTableAddDelta(b *testing.B) {
	tp := topology.NewTorus(4, 4, 4)
	dt := MinimalAdaptive{}.DispTable(tp)
	dv := NewDeltaVec(tp.NumChannels())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dv.Reset()
		for a := 0; a < tp.N(); a += 5 {
			dt.AddDelta(a, (a*37+11)%tp.N(), 1.5, dv)
		}
	}
}
