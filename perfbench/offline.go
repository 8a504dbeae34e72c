package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"rahtm"
	"rahtm/internal/serve"
)

// problem is one mapping problem of an offline workload.
type problem struct {
	name  string
	work  *rahtm.Workload
	topo  []int
	torus *rahtm.Torus
	conc  int

	// Quality of the machine default mapping, the normalization baseline
	// of mcl_rel and comm_rel (paper Figure 10).
	defMCL, defComm float64
	// The first pass's answer, which every later pass must repeat, and its
	// quality relative to the default mapping.
	mapping         rahtm.Mapping
	mclRel, commRel float64
}

// offlineWorkload is a fixed set of problems solved back to back; one
// pass solves each once.
type offlineWorkload struct {
	name     string
	problems func(vol float64) ([]*problem, error)
}

var halo4k = offlineWorkload{
	name: "halo4k",
	problems: func(vol float64) ([]*problem, error) {
		return []*problem{newProblem("halo2d-64x64", rahtm.Halo2D(64, 64, vol), []int{4, 4, 4, 4}, 16)}, nil
	},
}

var nas256 = offlineWorkload{
	name: "nas256",
	problems: func(vol float64) ([]*problem, error) {
		var ps []*problem
		for _, name := range []string{"BT", "SP", "CG"} {
			w, err := rahtm.WorkloadByName(name, 256)
			if err != nil {
				return nil, err
			}
			w.Graph = w.Graph.Scale(vol)
			ps = append(ps, newProblem(name, w, []int{4, 4, 4}, 4))
		}
		return ps, nil
	},
}

func newProblem(name string, w *rahtm.Workload, topo []int, conc int) *problem {
	return &problem{name: name, work: w, topo: topo, torus: rahtm.NewTorus(topo...), conc: conc}
}

// messageScale is the seed's message size for the offline workloads: a
// power of two, so every floating-point sum and comparison of the search
// scales exactly and the mapping, the work counters and the MCL relative
// to the pinned unit-size value do not depend on the seed.
func messageScale(seed int64) float64 { return math.Ldexp(1, int((seed%4+4)%4)) }

// pinnedJSON holds each offline problem's MCL at unit message size.
//
//go:embed pinned.json
var pinnedJSON []byte

const (
	// offlineParallelism spreads a solve over both cores of a 2-core
	// machine. A solve pinned to one core measures that core's share of
	// the host: on a shared 2-vCPU Xeon each vCPU's speed swings by about
	// 1.5x, independently of the other, over tens of seconds.
	offlineParallelism = 2
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median. An offline set-up takes about a millisecond, so many
	// repetitions are cheap and keep the median steady.
	setupReps = 51
	minPasses = 3
)

func runOffline(ctx context.Context, b *bench, w offlineWorkload) error {
	var pinned map[string]map[string]float64
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return fmt.Errorf("pinned.json: %w", err)
	}
	vol := messageScale(b.cfg.seed)
	ps, err := b.setupOffline(w, vol)
	if err != nil {
		return err
	}
	for _, p := range ps {
		if err := reference(p); err != nil {
			return err
		}
	}

	// Timed runs solve untraced passes only, at least minPasses of them so
	// solve_s is a median even where one pass takes about half the run. A
	// traced run alternates an untraced and a traced pass, so the tracing
	// overhead is measured on the same machine state.
	var untraced, traced []passResult
	start := time.Now()
	for (b.tr == nil && len(untraced) < minPasses) || len(untraced) == 0 || time.Since(start) < b.cfg.seconds {
		untraced = append(untraced, b.pass(ctx, ps, nil, vol, pinned[w.name]))
		if b.tr != nil {
			traced = append(traced, b.pass(ctx, ps, b.tr, vol, pinned[w.name]))
		}
	}

	var walls, lats []float64
	var solveTime time.Duration
	layers := make([]solveLayers, len(untraced))
	for i, pr := range untraced {
		walls = append(walls, pr.layers.wall.Seconds())
		solveTime += pr.layers.wall
		for _, l := range pr.lat {
			lats = append(lats, millis(l))
		}
		layers[i] = pr.layers
	}
	var mclRel, commRel []float64
	for _, p := range ps {
		mclRel = append(mclRel, p.mclRel)
		commRel = append(commRel, p.commRel)
	}
	b.set("solve_s", "s", median(walls), len(walls))
	b.set("qps", "1/s", float64(len(lats))/solveTime.Seconds(), len(lats))
	b.set("latency_p50_ms", "ms", quantile(lats, 0.5), len(lats))
	b.set("latency_p90_ms", "ms", quantile(lats, 0.9), len(lats))
	b.set("mcl_rel", "ratio", geomean(mclRel), len(ps))
	b.set("comm_rel", "ratio", geomean(commRel), len(ps))
	b.samples["passes"] = len(untraced)
	b.samples["solve_latency_ms"] = lats
	b.samples["problems"] = len(ps)
	b.samples["message_scale"] = vol

	if b.tr == nil {
		return nil
	}
	b.reportLayers(layers)
	var graphBuild, graphFreeze []float64
	for _, pr := range untraced {
		graphBuild = append(graphBuild, float64(pr.graphBuild))
		graphFreeze = append(graphFreeze, float64(pr.graphFreeze))
	}
	b.set("graph.build", "count", median(graphBuild), len(graphBuild))
	b.set("graph.freeze", "count", median(graphFreeze), len(graphFreeze))
	roots := map[int64]bool{}
	var tracedWalls []float64
	for _, pr := range traced {
		tracedWalls = append(tracedWalls, pr.layers.wall.Seconds())
		for _, id := range pr.roots {
			roots[id] = true
		}
	}
	b.reportTrace(roots, len(traced), tracedWalls, walls)
	return b.serveProbe(ctx, ps)
}

// setupOffline generates and freezes the workload's graphs setupReps
// times and reports the median set-up, generation and freeze times.
func (b *bench) setupOffline(w offlineWorkload, vol float64) ([]*problem, error) {
	var total, gen, freeze []float64
	var ps []*problem
	for rep := 0; rep < setupReps; rep++ {
		// Each repetition starts from a collected heap, as the one set-up of
		// a fresh process does, rather than paying for its predecessor's
		// garbage.
		runtime.GC()
		t0 := time.Now()
		var err error
		if ps, err = w.problems(vol); err != nil {
			return nil, err
		}
		t1 := time.Now()
		for _, p := range ps {
			p.work.Graph.Freeze()
		}
		t2 := time.Now()
		total = append(total, t2.Sub(t0).Seconds())
		gen = append(gen, t1.Sub(t0).Seconds())
		freeze = append(freeze, t2.Sub(t1).Seconds())
	}
	b.set("setup_s", "s", median(total), setupReps)
	b.set("workload.gen_s", "s", median(gen), setupReps)
	b.set("graph.freeze_s", "s", median(freeze), setupReps)
	return ps, nil
}

// reference maps p with the machine default mapping and records its MCL
// and communication time.
func reference(p *problem) error {
	m, err := rahtm.DefaultMapper(p.torus).MapProcs(p.work, p.torus, p.conc)
	if err != nil {
		return fmt.Errorf("%s: default mapping: %w", p.name, err)
	}
	p.defMCL = rahtm.MCL(p.torus, p.work.Graph, m)
	rep, err := rahtm.CommTime(p.torus, p.work.Graph, m, rahtm.Model{})
	if err != nil {
		return fmt.Errorf("%s: default mapping comm time: %w", p.name, err)
	}
	p.defComm = rep.Time
	return nil
}

// passResult is one pass over an offline workload's problems.
type passResult struct {
	lat                     []time.Duration // per Solve call
	layers                  solveLayers
	roots                   []int64 // traced Solve span IDs
	graphBuild, graphFreeze int64   // process-wide counter deltas
}

// pass solves every problem once, checks each answer, and measures the
// benchmark-side layer calls. tr is nil for an untraced pass: no observer
// is attached and no span is recorded.
func (b *bench) pass(ctx context.Context, ps []*problem, tr *tracer, vol float64, pinned map[string]float64) passResult {
	var pr passResult
	before := rahtm.Metrics()
	for _, p := range ps {
		b.attempted++
		scope := rahtm.NewScope("")
		req := rahtm.Request{Work: p.work, Torus: p.torus, Conc: p.conc, Parallelism: offlineParallelism}
		var res *rahtm.Result
		var err error
		d, id := tr.call("Solve", "rahtm", 0, scope.TraceID, func(id int64) {
			if tr != nil {
				req.Observer = newPipelineObserver(tr, id, scope.TraceID)
			}
			res, err = rahtm.Solve(rahtm.WithScope(ctx, scope), req)
		})
		if err != nil {
			b.failf("%s: solve: %v", p.name, err)
			continue
		}
		pr.lat = append(pr.lat, d)
		pr.roots = append(pr.roots, id)
		if res.Degraded || res.Stats == nil {
			b.failf("%s: degraded or stats-less result", p.name)
			continue
		}
		eval, err := checkMapping(tr, p.torus, p.work.Graph, p.conc, res.Mapping, res.MCL, id, scope.TraceID)
		if err != nil {
			b.failf("%s: %v", p.name, err)
			continue
		}
		if want := pinned[p.name] * vol; res.MCL != want {
			b.failf("%s: MCL %v, pinned %v", p.name, res.MCL, want)
			continue
		}
		var rep *rahtm.CommReport
		hop, _ := tr.call("HopBytes", "metrics", id, scope.TraceID, func(int64) {
			rahtm.HopBytes(p.torus, p.work.Graph, res.Mapping)
		})
		comm, _ := tr.call("CommTime", "netsim", id, scope.TraceID, func(int64) {
			rep, err = rahtm.CommTime(p.torus, p.work.Graph, res.Mapping, rahtm.Model{})
		})
		if err != nil {
			b.failf("%s: comm time: %v", p.name, err)
			continue
		}
		switch {
		case p.mapping == nil:
			p.mapping = res.Mapping
			p.mclRel = res.MCL / p.defMCL
			p.commRel = rep.Time / p.defComm
		case !sameMapping(p.mapping, res.Mapping):
			b.failf("%s: mapping differs from the first pass's", p.name)
			continue
		}
		pr.layers.add(res, d)
		pr.layers.eval += eval
		pr.layers.hopBytes += hop
		pr.layers.commTime += comm
	}
	delta := rahtm.Metrics().Sub(before)
	pr.graphBuild = delta.Counter("graph.build")
	pr.graphFreeze = delta.Counter("graph.freeze")
	return pr
}

// serveProbe sends each problem to an in-process daemon twice as a
// default-mapper request with an inline graph — a fresh solve, then a
// cache hit — so the serving layer's metrics are measured on this
// workload's graphs. The daemon's answer must have the MCL of the
// library's default mapping.
func (b *bench) serveProbe(ctx context.Context, ps []*problem) error {
	var sv serveSample
	bodies := make([][]byte, len(ps))
	graphs := make([]*rahtm.Comm, len(ps))
	for i, p := range ps {
		var text strings.Builder
		if _, err := p.work.Graph.WriteTo(&text); err != nil {
			return err
		}
		var err error
		if bodies[i], err = json.Marshal(rahtm.Request{Graph: text.String(), Topo: p.topo, Conc: p.conc, Mapper: "default"}); err != nil {
			return err
		}
		if graphs[i], err = sv.materialize(b.tr, bodies[i]); err != nil {
			return err
		}
	}
	d, err := startDaemon(serve.Config{Workers: 1, MaxParallelism: 2})
	if err != nil {
		return err
	}
	before := rahtm.Metrics()
	for i, p := range ps {
		for try := 0; try < 2; try++ {
			b.attempted++
			r := sv.post(ctx, b.tr, d, bodies[i])
			if r.err == nil {
				_, r.err = checkMapping(b.tr, p.torus, graphs[i], p.conc, r.res.Mapping, r.res.MCL, 0, r.res.TraceID)
			}
			switch {
			case r.err != nil:
				b.failf("%s: serve probe: %v", p.name, r.err)
			case r.res.MCL != p.defMCL:
				b.failf("%s: daemon default mapping MCL %v, library %v", p.name, r.res.MCL, p.defMCL)
			case r.res.Cached != (try == 1):
				b.failf("%s: serve probe request %d cached=%v", p.name, try, r.res.Cached)
			}
		}
	}
	delta := rahtm.Metrics().Sub(before)
	if err := d.stop(); err != nil {
		return err
	}
	b.reportServe(&sv, delta)
	return nil
}
