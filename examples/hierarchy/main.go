// hierarchy traces RAHTM's three phases on the paper's §III running
// example: a 16-process communication graph mapped onto a 4x4 torus
// (Figures 3-7), printing what each phase produced.
package main

import (
	"context"
	"fmt"
	"log"

	"rahtm"
)

func main() {
	// The running example: 16 processes with 2-D nearest-neighbor
	// communication (the structure of Figure 3's example graph).
	w := rahtm.Halo2D(4, 4, 10)
	t := rahtm.NewTorus(4, 4)

	fmt.Printf("mapping %d processes onto %s\n\n", w.Procs(), t)

	sres, err := rahtm.Solve(context.Background(), rahtm.Request{Work: w, Torus: t, Conc: 1, Config: &rahtm.Mapper{}})
	if err != nil {
		log.Fatal(err)
	}
	res := sres.Detail

	s := res.Stats
	fmt.Println("Phase 1 — clustering (Figures 3-4)")
	fmt.Printf("  tile shapes per level : %v\n", s.TileShapes)
	fmt.Printf("  volume made local     : %.1f%%\n", 100*s.ClusterQuality)
	fmt.Printf("  time                  : %v\n\n", s.ClusterTime)

	fmt.Println("Phase 2 — hierarchical cube mapping (Figures 5-6)")
	fmt.Printf("  subproblems solved    : %d (%d reused from siblings)\n", s.Subproblems, s.SubproblemsHit)
	fmt.Printf("  leaf solver           : %v\n", s.LeafMethod)
	fmt.Printf("  time                  : %v\n\n", s.MapTime)

	fmt.Println("Phase 3 — rotation merge (Figure 7)")
	fmt.Printf("  merges                : %d (%d reused)\n", s.Merges, s.MergesHit)
	fmt.Printf("  candidates at root    : %d\n", s.CandidatesKept)
	fmt.Printf("  time                  : %v\n\n", s.MergeTime)

	fmt.Printf("final node mapping (task -> node): %v\n", res.NodeMapping)
	fmt.Printf("final MCL: %.4g", res.MCL)

	def, err := rahtm.DefaultMapper(t).MapProcs(w, t, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf(" (default mapping: %.4g)\n", rahtm.MCL(t, w.Graph, def))
}
