package hiermap

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/routing"
	"rahtm/internal/telemetry"
	"rahtm/internal/topology"
)

// heapOrder calls fn with every permutation of 0..n-1, in the order
// solveExhaustive enumerates placements (Heap's algorithm). fn must not
// keep perm.
func heapOrder(n int, fn func(perm []int)) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	c := make([]int, n)
	fn(perm)
	for i := 0; i < n; {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			fn(perm)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// exhaustiveOracle is the reference exhaustive search: every placement in
// Heap's order, scored from scratch with routing.MaxChannelLoad, keeping
// the first one with the strictly smallest MCL.
func exhaustiveOracle(g *graph.Comm, cube *topology.Torus) (topology.Mapping, float64) {
	var best topology.Mapping
	bestMCL := math.Inf(1)
	heapOrder(cube.N(), func(perm []int) {
		if mcl := routing.MaxChannelLoad(cube, g, perm, routing.MinimalAdaptive{}); mcl < bestMCL {
			bestMCL = mcl
			best = append(best[:0], perm...)
		}
	})
	return best, bestMCL
}

// smallCubeShapes are the Phase 2 cube shapes of at most eight nodes.
var smallCubeShapes = [][]int{{1}, {2}, {2, 1}, {1, 2}, {2, 2}, {2, 2, 1}, {2, 1, 2}, {2, 2, 2}}

// tiedGraph draws small integer volumes on a dense pattern, so many
// placements share the optimal MCL and the tie rule decides the answer.
func tiedGraph(n int, seed int64) *graph.Comm {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for e := 0; e < 2*n; e++ {
		g.AddTraffic(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(2)))
	}
	return g
}

// TestExhaustiveMatchesOracle requires the pair-table solver to return
// exactly the oracle's mapping and bitwise MCL on random graphs over every
// small cube shape, as meshes and as double-wide tori. The 8-node cubes
// take one seed: their oracle scores 40,320 placements from scratch.
func TestExhaustiveMatchesOracle(t *testing.T) {
	for _, shape := range smallCubeShapes {
		for _, torus := range []bool{false, true} {
			cube := cubeTopology(shape, torus)
			n := cube.N()
			seeds := int64(2)
			if n == 8 {
				seeds = 1
			}
			t.Run(fmt.Sprintf("%v/torus=%v", shape, torus), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= seeds; seed++ {
					for _, g := range []*graph.Comm{randomGraph(n, seed), tiedGraph(n, seed).Freeze()} {
						res, err := Map(g, shape, Config{Method: Exhaustive, Torus: torus})
						if err != nil {
							t.Fatal(err)
						}
						want, wantMCL := exhaustiveOracle(g, cube)
						if !slices.Equal(res.Mapping, want) {
							t.Fatalf("seed %d: mapping %v, oracle %v", seed, res.Mapping, want)
						}
						if math.Float64bits(res.MCL) != math.Float64bits(wantMCL) {
							t.Fatalf("seed %d: MCL %.17g, oracle %.17g", seed, res.MCL, wantMCL)
						}
						if !res.Proved || res.Degraded {
							t.Fatalf("seed %d: Proved %v Degraded %v", seed, res.Proved, res.Degraded)
						}
					}
				}
			})
		}
	}
}

// TestExhaustiveTrafficFreeKeepsIdentity pins the tie rule the abort
// bound must preserve: with no inter-cluster traffic every placement
// scores 0, so the first placement — the identity — is the answer. An
// implementation that accepted every placement it did not abort would
// return the last permutation instead.
func TestExhaustiveTrafficFreeKeepsIdentity(t *testing.T) {
	// An edgeless graph, and 16 tasks paired into 8 clusters that only
	// talk within a pair.
	fine := graph.New(16)
	assign := make([]int, 16)
	for v := range assign {
		assign[v] = v / 2
		fine.AddTraffic(v, v^1, 5)
	}
	intra, _ := fine.Coarsen(assign, 8)
	if intra.NumEdges() != 0 {
		t.Fatalf("coarsened graph kept %d inter-cluster edges", intra.NumEdges())
	}
	identity := topology.Mapping{0, 1, 2, 3, 4, 5, 6, 7}
	for i, g := range []*graph.Comm{graph.New(8), intra} {
		for _, torus := range []bool{false, true} {
			res, err := Map(g, []int{2, 2, 2}, Config{Method: Exhaustive, Torus: torus})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Mapping, identity) || res.MCL != 0 || !res.Proved {
				t.Fatalf("graph %d torus=%v: mapping %v MCL %v Proved %v, want identity, 0, proved",
					i, torus, res.Mapping, res.MCL, res.Proved)
			}
		}
	}
}

// TestExhaustiveReturnsFirstOptimumInHeapOrder checks the tie rule on a
// graph with many optimal placements: a directed ring embeds along any
// Hamiltonian cycle of the cube, and the solver must return the first
// such placement Heap's algorithm visits.
func TestExhaustiveReturnsFirstOptimumInHeapOrder(t *testing.T) {
	g := ringGraph(8, 3)
	cube := cubeTopology([]int{2, 2, 2}, false)
	var first topology.Mapping
	bestMCL := math.Inf(1)
	optima := 0
	heapOrder(8, func(perm []int) {
		mcl := routing.MaxChannelLoad(cube, g, perm, routing.MinimalAdaptive{})
		switch {
		case mcl < bestMCL:
			bestMCL, optima = mcl, 1
			first = append(first[:0], perm...)
		case mcl <= bestMCL:
			optima++
		}
	})
	if optima < 2 {
		t.Fatalf("fixture has %d optimal placements, want many", optima)
	}
	res, err := Map(g, []int{2, 2, 2}, Config{Method: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Mapping, first) || math.Float64bits(res.MCL) != math.Float64bits(bestMCL) {
		t.Fatalf("mapping %v MCL %v, want first of %d optima %v MCL %v", res.Mapping, res.MCL, optima, first, bestMCL)
	}
}

// TestExhaustiveWorkCounters checks the exact work counters: a proved
// solve scores all n! placements, some of them pruned, and the counts land
// in the request scope and its Prometheus exposition.
func TestExhaustiveWorkCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithScope(context.Background(), &telemetry.Scope{Reg: reg})
	res, err := MapCtx(ctx, randomGraph(8, 1), cubeShape(8), Config{Method: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Proved {
		t.Fatal("exhaustive solve not proved")
	}
	snap := reg.Snapshot()
	placements := snap.Counter(telemetry.CtrExhaustivePlacements)
	pruned := snap.Counter(telemetry.CtrExhaustivePruned)
	if placements != 40320 {
		t.Fatalf("placements = %d, want 8! = 40320", placements)
	}
	if pruned <= 0 || pruned >= placements {
		t.Fatalf("pruned = %d of %d placements", pruned, placements)
	}
	var prom bytes.Buffer
	if err := telemetry.WritePrometheus(&prom, snap); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]int64{
		"rahtm_hiermap_exhaustive_placements_total": placements,
		"rahtm_hiermap_exhaustive_pruned_total":     pruned,
	} {
		if line := fmt.Sprintf("\n%s %d\n", name, v); !bytes.Contains(prom.Bytes(), []byte(line)) {
			t.Errorf("Prometheus exposition lacks %q", line[1:len(line)-1])
		}
	}
}

// BenchmarkExhaustive measures the exhaustive kernel on an 8-node cube,
// reporting throughput in placements scored per second and the share of
// placements the running-max bound abandoned.
func BenchmarkExhaustive(b *testing.B) {
	g := randomGraph(8, 1).Freeze()
	for _, torus := range []bool{false, true} {
		name := "mesh"
		if torus {
			name = "torus"
		}
		b.Run(name, func(b *testing.B) {
			reg := telemetry.NewRegistry()
			ctx := telemetry.WithScope(context.Background(), &telemetry.Scope{Reg: reg})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MapCtx(ctx, g, cubeShape(8), Config{Method: Exhaustive, Torus: torus}); err != nil {
					b.Fatal(err)
				}
			}
			snap := reg.Snapshot()
			placements := float64(snap.Counter(telemetry.CtrExhaustivePlacements))
			b.ReportMetric(placements/b.Elapsed().Seconds(), "placements/s")
			b.ReportMetric(float64(snap.Counter(telemetry.CtrExhaustivePruned))/placements, "pruned_frac")
		})
	}
}
