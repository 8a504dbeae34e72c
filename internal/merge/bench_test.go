package merge

import (
	"context"
	"math/rand"
	"testing"

	"rahtm/internal/graph"
	"rahtm/internal/telemetry"
)

// BenchmarkMergeRoot measures one default-configuration root merge: 8
// children of shape 2x2x2, each carrying a beam of candidates, into a
// 4x4x4 torus. It reports merge candidates per second and the share of
// them abandoned at the beam cutoff.
func BenchmarkMergeRoot(b *testing.B) {
	const nchild, tpc = 8, 8
	n := nchild * tpc
	rng := rand.New(rand.NewSource(42))
	bld := graph.New(n)
	for e := 0; e < 4*n; e++ {
		bld.AddTraffic(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(9)))
	}
	g := bld.Freeze()
	children := deltaChildren(b, g, nchild, tpc, []int{2, 2, 2})
	pins := rng.Perm(nchild)
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithScope(context.Background(), &telemetry.Scope{Reg: reg})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeCtx(ctx, g, children, []int{2, 2, 2}, pins, Config{Torus: true}); err != nil {
			b.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	candidates := float64(snap.Counter(telemetry.CtrBeamCandidates))
	b.ReportMetric(candidates/b.Elapsed().Seconds(), "candidates/s")
	b.ReportMetric(float64(snap.Counter(telemetry.CtrBeamAbandoned))/candidates, "abandoned_frac")
}
