package routing

import (
	"math"
	"testing"

	"rahtm/internal/topology"
)

// cubeTopologies are the Phase 2 cube shapes of up to eight nodes, as
// meshes and as double-wide tori (whose size-2 dimensions always tie, so
// every direction combination is exercised).
func cubeTopologies() []*topology.Torus {
	var out []*topology.Torus
	for _, shape := range [][]int{{2}, {2, 1}, {2, 2}, {2, 2, 1}, {2, 2, 2}} {
		out = append(out, topology.NewMesh(shape...), topology.NewTorus(shape...))
	}
	return out
}

// TestPairTableMatchesAddLoads replays every ordered pair of every cube
// into a zero vector and requires the loads to equal AddLoads bit for bit,
// for positive and negative volumes.
func TestPairTableMatchesAddLoads(t *testing.T) {
	alg := MinimalAdaptive{}
	for _, tp := range cubeTopologies() {
		t.Run(tp.String(), func(t *testing.T) {
			pt := alg.PairTable(tp)
			for a := 0; a < tp.N(); a++ {
				for b := 0; b < tp.N(); b++ {
					for _, vol := range []float64{1, 7.3, 1.0 / 3, -2.9} {
						want := make([]float64, tp.NumChannels())
						got := make([]float64, tp.NumChannels())
						alg.AddLoads(tp, a, b, vol, want)
						if !pt.Replay(a, b, vol, got, math.Inf(1)) {
							t.Fatalf("pair (%d,%d) vol %v: unbounded replay stopped", a, b, vol)
						}
						for ch := range want {
							if math.Float64bits(got[ch]) != math.Float64bits(want[ch]) {
								t.Fatalf("pair (%d,%d) vol %v channel %d: replay %.17g, AddLoads %.17g",
									a, b, vol, ch, got[ch], want[ch])
							}
						}
					}
				}
			}
		})
	}
}

// TestPairTableReplayStopsAtBound checks the early stop: a replay reports
// false as soon as a deposit reaches the bound, and true when every
// channel stays strictly below it.
func TestPairTableReplayStopsAtBound(t *testing.T) {
	tp := topology.NewTorus(2, 2, 2)
	pt := MinimalAdaptive{}.PairTable(tp)
	full := make([]float64, tp.NumChannels())
	pt.Replay(0, 7, 8, full, math.Inf(1))
	mcl := MCL(full)
	if mcl <= 0 {
		t.Fatalf("corner-to-corner flow deposited nothing")
	}
	if !pt.Replay(0, 7, 8, make([]float64, tp.NumChannels()), math.Nextafter(mcl, math.Inf(1))) {
		t.Fatal("replay stopped below the bound")
	}
	if pt.Replay(0, 7, 8, make([]float64, tp.NumChannels()), mcl) {
		t.Fatal("replay reached the bound without stopping")
	}
	if !pt.Replay(3, 3, 8, make([]float64, tp.NumChannels()), 0) {
		t.Fatal("a self pair deposits nothing and cannot reach a bound")
	}
}
