package main

import (
	"fmt"
	"time"

	"rahtm"
)

// checkMapping verifies a returned mapping from outside the program: one
// entry per process, every node hosting exactly conc processes, and a
// reported MCL equal to an independent re-evaluation under minimal
// adaptive routing. It returns the re-evaluation's duration and an error
// describing the first violation.
func checkMapping(tr *tracer, t *rahtm.Torus, g *rahtm.Comm, conc int, m rahtm.Mapping, reported float64, parent int64, trace string) (time.Duration, error) {
	if len(m) != g.N() {
		return 0, fmt.Errorf("mapping covers %d processes, want %d", len(m), g.N())
	}
	hosted := make([]int, t.N())
	for p, n := range m {
		if n < 0 || n >= t.N() {
			return 0, fmt.Errorf("process %d mapped to node %d of %d", p, n, t.N())
		}
		hosted[n]++
	}
	for n, c := range hosted {
		if c != conc {
			return 0, fmt.Errorf("node %d hosts %d processes, want %d", n, c, conc)
		}
	}
	var mcl float64
	d, _ := tr.call("MaxChannelLoad", "routing", parent, trace, func(int64) { mcl = rahtm.MCL(t, g, m) })
	if mcl != reported {
		return d, fmt.Errorf("reported MCL %v, re-evaluated %v", reported, mcl)
	}
	return d, nil
}

func sameMapping(a, b rahtm.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
