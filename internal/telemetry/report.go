package telemetry

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"
)

// PhaseTime is one row of the end-of-run report: a pipeline phase's wall
// time, the cumulative worker busy time inside it (Work >= Wall when more
// than one worker was busy), and the scheduler job count.
type PhaseTime struct {
	Name string
	Wall time.Duration
	Work time.Duration
	Jobs int
}

// EffectiveParallelism returns Work/Wall — the average number of busy
// workers across the phase. Zero when the phase recorded no wall time.
func (p PhaseTime) EffectiveParallelism() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.Work) / float64(p.Wall)
}

// WriteReport prints the end-of-run telemetry table: per-phase wall time,
// cumulative work and effective parallelism, then the cache and solver
// counters from snap (hit rates, pivots/sec, anneal acceptance, beam
// pruning). phases may be empty for counters-only reports; counters that
// never fired are omitted.
func WriteReport(w io.Writer, workers int, phases []PhaseTime, snap Snapshot) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(phases) > 0 {
		fmt.Fprintf(tw, "telemetry report (%d workers)\n", workers)
		fmt.Fprintln(tw, "phase\twall\twork\tjobs\teff. parallelism")
		var totalWall time.Duration
		for _, p := range phases {
			totalWall += p.Wall
			eff := "-"
			if p.Work > 0 && p.Wall > 0 {
				eff = fmt.Sprintf("%.2f", p.EffectiveParallelism())
			}
			fmt.Fprintf(tw, "%s\t%v\t%v\t%d\t%s\n",
				p.Name, p.Wall.Round(time.Microsecond), p.Work.Round(time.Microsecond), p.Jobs, eff)
		}
		fmt.Fprintf(tw, "total\t%v\t\t\t\n", totalWall.Round(time.Microsecond))
	} else {
		fmt.Fprintln(tw, "telemetry report")
	}

	wall := time.Duration(0)
	for _, p := range phases {
		wall += p.Wall
	}
	line := func(format string, args ...interface{}) {
		fmt.Fprintf(tw, format+"\n", args...)
	}
	pct := func(rate float64) string {
		if math.IsNaN(rate) {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*rate)
	}

	if hits, misses := snap.Counter(CtrStencilHits), snap.Counter(CtrStencilMisses); hits+misses > 0 {
		line("stencil cache\t%d hits / %d misses (%s hit rate), %d builds, %d evictions",
			hits, misses, pct(Rate(hits, misses)),
			snap.Counter(CtrStencilBuilds), snap.Counter(CtrStencilEvictions))
	}
	if subs := snap.Counter(CtrSubproblems); subs > 0 {
		hit := snap.Counter(CtrSubproblemHits)
		line("sibling reuse\t%d/%d subproblems from cache (%s)",
			hit, subs, pct(Rate(hit, subs-hit)))
	}
	if merges := snap.Counter(CtrMerges); merges > 0 {
		hit := snap.Counter(CtrMergeHits)
		line("merge reuse\t%d/%d merges from cache (%s)",
			hit, merges, pct(Rate(hit, merges-hit)))
	}
	if solves := snap.Counter(CtrLPSolves); solves > 0 {
		pivots := snap.Counter(CtrLPPivots)
		rate := ""
		if wall > 0 {
			rate = fmt.Sprintf(", %.0f pivots/sec", float64(pivots)/wall.Seconds())
		}
		line("lp\t%d solves, %d simplex pivots%s", solves, pivots, rate)
	}
	if solves := snap.Counter(CtrMILPSolves); solves > 0 {
		line("milp\t%d solves, %d branch-and-bound nodes",
			solves, snap.Counter(CtrMILPNodes))
	}
	if moves := snap.Counter(CtrAnnealMoves); moves > 0 {
		acc := snap.Counter(CtrAnnealAccepted)
		line("anneal\t%d moves, %d accepted (%s), %d restarts",
			moves, acc, pct(Rate(acc, moves-acc)), snap.Counter(CtrAnnealRestarts))
	}
	if placements := snap.Counter(CtrExhaustivePlacements); placements > 0 {
		pruned := snap.Counter(CtrExhaustivePruned)
		line("exhaustive\t%d placements scored, %d pruned by the bound (%s)",
			placements, pruned, pct(Rate(pruned, placements-pruned)))
	}
	if cand := snap.Counter(CtrBeamCandidates); cand > 0 {
		kept := snap.Counter(CtrBeamKept)
		line("beam\t%d candidates generated, %d kept (%s pruned), %d symmetry evals",
			cand, kept, pct(Rate(cand-kept, kept)), snap.Counter(CtrSymmetryEvals))
		ab, evals, evalsAb := snap.Counter(CtrBeamAbandoned), snap.Counter(CtrSymmetryEvals), snap.Counter(CtrSymmetryAbandoned)
		line("beam bound\t%d candidates abandoned at the cutoff (%s), %d symmetry evals at the pair best (%s)",
			ab, pct(Rate(ab, cand-ab)), evalsAb, pct(Rate(evalsAb, evals-evalsAb)))
	}
	if p2p, colls := snap.Counter(CtrTraceP2P), snap.Counter(CtrTraceColls); p2p+colls > 0 {
		line("trace\t%d p2p records, %d collectives expanded", p2p, colls)
	}
	return tw.Flush()
}
