package main

import (
	"context"
	"encoding/json"
	"time"

	"rahtm"
)

// solveLayers sums the per-layer figures of a group of RAHTM solves: one
// offline pass, or one fresh serve-mix solve.
type solveLayers struct {
	wall                                            time.Duration // Solve wall time
	cluster, mapWall, mapWork, mergeWall, mergeWork time.Duration // Result.Stats
	eval, hopBytes, commTime                        time.Duration // benchmark-side calls
	quality                                         float64       // summed ClusterQuality
	subproblems, solves                             int
	counters                                        map[string]int64 // Result.Metrics
}

func (l *solveLayers) add(res *rahtm.Result, wall time.Duration) {
	s := res.Stats
	l.wall += wall
	l.cluster += s.ClusterTime
	l.mapWall += s.MapTime
	l.mapWork += s.MapWorkTime
	l.mergeWall += s.MergeTime
	l.mergeWork += s.MergeWorkTime
	l.quality += s.ClusterQuality
	l.subproblems += s.Subproblems
	l.solves++
	if l.counters == nil {
		l.counters = map[string]int64{}
	}
	for k, v := range res.Metrics {
		l.counters[k] += v
	}
}

// reportLayers sets the per-layer metrics of the cluster, hiermap, merge,
// routing, core, metrics and netsim modules: times are medians over the
// groups, counts are means per group, ratios are taken over the sums.
func (b *bench) reportLayers(ls []solveLayers) {
	n := len(ls)
	med := func(f func(l *solveLayers) time.Duration) float64 {
		xs := make([]float64, n)
		for i := range ls {
			xs[i] = f(&ls[i]).Seconds()
		}
		return median(xs)
	}
	sum := func(f func(l *solveLayers) time.Duration) float64 {
		var d time.Duration
		for i := range ls {
			d += f(&ls[i])
		}
		return d.Seconds()
	}
	total := map[string]float64{}
	var quality float64
	var subproblems, solves int
	for _, l := range ls {
		for k, v := range l.counters {
			total[k] += float64(v)
		}
		quality += l.quality
		subproblems += l.subproblems
		solves += l.solves
	}
	mean := func(name string) float64 { return ratio(total[name], float64(n)) }
	count := func(metric, counter string) { b.set(metric, "count", mean(counter), n) }

	b.set("cluster.wall_s", "s", med(func(l *solveLayers) time.Duration { return l.cluster }), n)
	b.set("cluster.quality", "ratio", ratio(quality, float64(solves)), solves)

	b.set("hiermap.wall_s", "s", med(func(l *solveLayers) time.Duration { return l.mapWall }), n)
	b.set("hiermap.work_s", "s", med(func(l *solveLayers) time.Duration { return l.mapWork }), n)
	b.set("hiermap.subproblems", "count", ratio(float64(subproblems), float64(n)), n)
	b.set("hiermap.reuse_ratio", "ratio", ratio(total["core.subproblems.reused"], total["core.subproblems"]), n)
	count("hiermap.anneal_moves", "anneal.moves")
	b.set("hiermap.anneal_accept_ratio", "ratio", ratio(total["anneal.accepted"], total["anneal.moves"]), n)
	count("lp.pivots", "lp.pivots")
	count("milp.nodes", "milp.nodes")

	mergeWork := sum(func(l *solveLayers) time.Duration { return l.mergeWork })
	b.set("merge.wall_s", "s", med(func(l *solveLayers) time.Duration { return l.mergeWall }), n)
	b.set("merge.work_s", "s", med(func(l *solveLayers) time.Duration { return l.mergeWork }), n)
	count("merge.beam_candidates", "merge.beam.candidates")
	b.set("merge.beam_kept_ratio", "ratio", ratio(total["merge.beam.kept"], total["merge.beam.candidates"]), n)
	count("merge.symmetry_evals", "merge.symmetry.evals")
	count("merge.delta_hits", "merge.delta.hits")
	count("merge.delta_fallbacks", "merge.delta.fallbacks")
	b.set("merge.candidates_per_s", "1/s", ratio(total["merge.beam.candidates"], mergeWork), n)

	hits, misses := total["routing.stencil.hits"], total["routing.stencil.misses"]
	count("routing.stencil_hits", "routing.stencil.hits")
	b.set("routing.stencil_hit_ratio", "ratio", ratio(hits, hits+misses), n)
	b.set("routing.stencil_hits_per_s", "1/s", ratio(hits, sum(func(l *solveLayers) time.Duration { return l.wall })), n)
	b.set("routing.eval_s", "s", med(func(l *solveLayers) time.Duration { return l.eval }), n)

	b.set("core.overhead_s", "s", med(func(l *solveLayers) time.Duration {
		return l.wall - l.cluster - l.mapWall - l.mergeWall
	}), n)
	b.set("core.merge_reuse_ratio", "ratio", ratio(total["core.merges.reused"], total["core.merges"]), n)
	b.set("core.parallel_eff", "ratio", ratio(
		sum(func(l *solveLayers) time.Duration { return l.mapWork + l.mergeWork }),
		sum(func(l *solveLayers) time.Duration { return l.mapWall + l.mergeWall })), n)

	b.set("metrics.hop_bytes_s", "s", med(func(l *solveLayers) time.Duration { return l.hopBytes }), n)
	b.set("netsim.comm_time_s", "s", med(func(l *solveLayers) time.Duration { return l.commTime }), n)
}

// serveSample collects what the benchmark saw of the serving layer.
type serveSample struct {
	hitMS, queueMS, solveMS []float64 // cached latency; fresh queue wait and wall_ms
	readS, freezeS, keyS    []float64 // timed Materialize, Freeze and Key
	hits, replies           int
}

// materialize does to a request body what the daemon's handler does before
// admission — decode it, build the workload from the inline graph
// (Request.Materialize, which runs graph.Read) and compute the cache key —
// timing each step, and returns the frozen graph for checking the reply.
func (sv *serveSample) materialize(tr *tracer, body []byte) (*rahtm.Comm, error) {
	var req rahtm.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	var w *rahtm.Workload
	var err error
	read, _ := tr.call("Materialize", "graph", 0, "", func(int64) { w, _, err = req.Materialize() })
	if err != nil {
		return nil, err
	}
	freeze, _ := tr.call("Freeze", "graph", 0, "", func(int64) { w.Graph.Freeze() })
	key, _ := tr.call("Key", "serve", 0, "", func(int64) { _, err = req.Key() })
	if err != nil {
		return nil, err
	}
	sv.readS = append(sv.readS, read.Seconds())
	sv.freezeS = append(sv.freezeS, freeze.Seconds())
	sv.keyS = append(sv.keyS, key.Seconds())
	return w.Graph, nil
}

// post sends one request and files its timings.
func (sv *serveSample) post(ctx context.Context, tr *tracer, d *daemon, body []byte) reply {
	var r reply
	tr.call("POST /solve", "serve", 0, "", func(int64) { r = d.post(ctx, body) })
	if r.err == nil {
		sv.add(r)
	}
	return r
}

// add files a successful reply's timings as a cache hit or a fresh solve.
func (sv *serveSample) add(r reply) {
	sv.replies++
	if r.res.Cached {
		sv.hits++
		sv.hitMS = append(sv.hitMS, millis(r.latency))
	} else {
		sv.queueMS = append(sv.queueMS, r.queueMS)
		sv.solveMS = append(sv.solveMS, r.res.WallMS)
	}
}

// reportServe sets the serve.* and graph.read_s metrics; delta is the
// process-wide registry's change over the serving window.
func (b *bench) reportServe(sv *serveSample, delta rahtm.MetricsSnapshot) {
	b.set("serve.hit_latency_ms", "ms", median(sv.hitMS), len(sv.hitMS))
	b.set("serve.key_s", "s", median(sv.keyS), len(sv.keyS))
	b.set("graph.read_s", "s", median(sv.readS), len(sv.readS))
	b.set("serve.queue_wait_ms_p50", "ms", quantile(sv.queueMS, 0.5), len(sv.queueMS))
	b.set("serve.queue_wait_ms_p90", "ms", quantile(sv.queueMS, 0.9), len(sv.queueMS))
	b.set("serve.solve_ms_p50", "ms", quantile(sv.solveMS, 0.5), len(sv.solveMS))
	b.set("serve.solve_ms_p90", "ms", quantile(sv.solveMS, 0.9), len(sv.solveMS))
	b.set("serve.cache_hit_ratio", "ratio", ratio(float64(sv.hits), float64(sv.replies)), sv.replies)
	for _, c := range []string{"serve.rejected", "serve.degraded", "serve.errors"} {
		b.set(c, "count", float64(delta.Counter(c)), 1)
	}
}
