package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// gatedCounters are the exact work counters: the pipeline is deterministic,
// so for a given input they repeat exactly, with no timing noise.
var gatedCounters = []string{
	"merge.beam.candidates",
	"merge.symmetry.evals",
	"merge.delta.hits",
	"routing.stencil.hits",
	"anneal.moves",
}

func newTestBench(workload string, seed int64, secs time.Duration) *bench {
	return &bench{cfg: config{workload: workload, seed: seed, seconds: secs}, metrics: map[string]metric{}, samples: map[string]any{}}
}

// onePass sets up an offline workload and solves one checked pass,
// returning the gated counters summed over its problems.
func onePass(t *testing.T, w offlineWorkload, seed int64) map[string]int64 {
	t.Helper()
	var pinned map[string]map[string]float64
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	b := newTestBench(w.name, seed, 0)
	vol := messageScale(seed)
	ps, err := b.setupOffline(w, vol)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if err := reference(p); err != nil {
			t.Fatal(err)
		}
	}
	pr := b.pass(context.Background(), ps, nil, vol, pinned[w.name])
	if len(b.failures) > 0 {
		t.Fatalf("%s seed %d: %v", w.name, seed, b.failures)
	}
	out := map[string]int64{}
	for _, c := range gatedCounters {
		out[c] = pr.layers.counters[c]
	}
	return out
}

// TestExactWorkGate solves each offline workload twice on one seed and
// requires the gated work counters to match exactly, then checks that a
// seed with another message size does the same work.
func TestExactWorkGate(t *testing.T) {
	if testing.Short() {
		t.Skip("solves halo4k and nas256 several times")
	}
	for _, w := range []offlineWorkload{halo4k, nas256} {
		t.Run(w.name, func(t *testing.T) {
			first := onePass(t, w, 1)
			for _, seed := range []int64{1, 2} {
				got := onePass(t, w, seed)
				for _, c := range gatedCounters {
					if got[c] != first[c] {
						t.Errorf("seed %d: %s = %d, first pass of seed 1 had %d", seed, c, got[c], first[c])
					}
				}
			}
			if first["merge.beam.candidates"] == 0 || first["routing.stencil.hits"] == 0 {
				t.Errorf("counters did not move: %v", first)
			}
			t.Logf("%s: %v", w.name, first)
		})
	}
}

// TestServeMixSeeds runs a short serve-mix on two seeds. Each must answer
// every request correctly with exactly the planned cache-hit share, and
// their mcl_rel must lie within the benchmark's bound of each other.
func TestServeMixSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve-mix closed loop twice")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	bound := map[string]float64{}
	for _, m := range s.EndToEnd {
		bound[m.Name] = m.Bound
	}
	var rel []float64
	for _, seed := range []int64{11, 12} {
		b := newTestBench("serve-mix", seed, time.Second)
		b.tr = newTracer()
		if err := runServeMix(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		if len(b.failures) > 0 {
			t.Fatalf("seed %d: %d failures, first: %s", seed, len(b.failures), b.failures[0])
		}
		planned := b.samples["planned_hit_ratio"].(float64)
		if got := b.metrics["serve.cache_hit_ratio"]; got.Value != planned {
			t.Errorf("seed %d: cache hit ratio %v, planned %v", seed, got.Value, planned)
		}
		rel = append(rel, b.metrics["mcl_rel"].Value)
	}
	if d := rel[1]/rel[0] - 1; d > bound["mcl_rel"] || -d > bound["mcl_rel"] {
		t.Errorf("mcl_rel %v on seed 11 and %v on seed 12 differ by more than the %v bound", rel[0], rel[1], bound["mcl_rel"])
	}
}

// TestPlanShares checks the generator's fixed mix on whole blocks.
func TestPlanShares(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p, err := newMixPlan(seed, 8*mixQuality)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[byte]int{}
		for _, q := range p.reqs {
			kinds[q.kind]++
		}
		n := len(p.reqs)
		if kinds['H']*8 != 5*n || kinds['R']*8 != 2*n || kinds['B']*8 != n {
			t.Errorf("seed %d: mix %v over %d requests, want 5:2:1", seed, kinds, n)
		}
	}
}
