package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestWriteReportTable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(CtrStencilHits).Add(90)
	reg.Counter(CtrStencilMisses).Add(10)
	reg.Counter(CtrStencilBuilds).Add(10)
	reg.Counter(CtrSubproblems).Add(20)
	reg.Counter(CtrSubproblemHits).Add(15)
	reg.Counter(CtrLPSolves).Add(4)
	reg.Counter(CtrLPPivots).Add(4000)
	reg.Counter(CtrAnnealMoves).Add(1000)
	reg.Counter(CtrAnnealAccepted).Add(250)
	reg.Counter(CtrBeamCandidates).Add(640)
	reg.Counter(CtrBeamKept).Add(64)
	reg.Counter(CtrBeamAbandoned).Add(500)
	reg.Counter(CtrSymmetryEvals).Add(100)
	reg.Counter(CtrSymmetryAbandoned).Add(90)
	reg.Counter(CtrExhaustivePlacements).Add(40320)
	reg.Counter(CtrExhaustivePruned).Add(40000)
	phases := []PhaseTime{
		{Name: "cluster", Wall: 10 * time.Millisecond},
		{Name: "map", Wall: 100 * time.Millisecond, Work: 350 * time.Millisecond, Jobs: 12},
		{Name: "merge", Wall: 50 * time.Millisecond, Work: 50 * time.Millisecond, Jobs: 3},
	}
	var sb strings.Builder
	if err := WriteReport(&sb, 4, phases, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"4 workers",
		"eff. parallelism",
		"3.50", // map effective parallelism
		"90 hits / 10 misses (90.0% hit rate)",
		"15/20 subproblems from cache",
		"4 solves, 4000 simplex pivots",
		"pivots/sec",
		"250 accepted (25.0%)",
		"640 candidates generated, 64 kept (90.0% pruned)",
		"500 candidates abandoned at the cutoff (78.1%), 90 symmetry evals at the pair best (90.0%)",
		"40320 placements scored, 40000 pruned by the bound (99.2%)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// Counters-only mode: no phases (rahtm-sim's use) still prints the counter
// lines and omits counters that never fired.
func TestWriteReportCountersOnly(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(CtrStencilHits).Add(1)
	reg.Counter(CtrStencilMisses).Add(1)
	var sb strings.Builder
	if err := WriteReport(&sb, 0, nil, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "stencil cache") {
		t.Fatalf("missing stencil line:\n%s", out)
	}
	for _, absent := range []string{"anneal", "lp", "beam", "eff. parallelism"} {
		if strings.Contains(out, absent+"\t") || strings.Contains(out, "\n"+absent+" ") {
			t.Fatalf("counters-only report must omit untouched %q:\n%s", absent, out)
		}
	}
}

func TestEffectiveParallelism(t *testing.T) {
	p := PhaseTime{Wall: time.Second, Work: 3 * time.Second}
	if got := p.EffectiveParallelism(); got != 3 {
		t.Fatalf("got %v", got)
	}
	if (PhaseTime{}).EffectiveParallelism() != 0 {
		t.Fatal("zero wall must yield 0")
	}
}
