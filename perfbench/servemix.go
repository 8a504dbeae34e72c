package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rahtm"
	"rahtm/internal/serve"
)

// serve-mix shape. Fresh problems are random sparse graphs on an 8x4
// torus (128 channels, below merge's 256-channel dense/sparse switch),
// sized so a cold RAHTM solve takes about 0.07 s on a 2-core Xeon.
var mixTopo = []int{8, 4}

const (
	mixConc    = 4
	mixProcs   = 8 * 4 * mixConc
	mixDegree  = 4
	mixWarm    = 16 // warm set solved and cached during set-up
	mixClients = 2  // closed loop: each client waits for its reply
	// mixBlock fixes the request mix: each block of eight is a seeded
	// shuffle of five cache hits (H), two fresh RAHTM solves (R) and one
	// fresh baseline-mapper request (B).
	mixBlock = "HHHHHRRB"
	// mixQuality is how many fresh RAHTM requests every run completes at
	// least; mcl_rel and comm_rel are taken over exactly these, so they
	// depend on the seed alone.
	mixQuality = 192
	// mixPlanRate sizes the pre-generated plan, in requests per second of
	// run time (several times the rate a 2-core machine sustains).
	mixPlanRate = 150
	mixSetups   = 3
	// mixDirect is how many fresh RAHTM problems a traced run also solves
	// directly, untraced and traced, for the trace.* metrics.
	mixDirect = 8
)

var baselineMappers = []string{"hilbert", "default", "greedy"}

// mixRequest is one planned request: its kind ('H' cache hit, 'R' fresh
// RAHTM solve, 'B' fresh baseline mapper), the warm-set index of a hit,
// and the JSON body.
type mixRequest struct {
	kind byte
	warm int
	body []byte
}

type mixPlan struct {
	warm [][]byte // bodies solved and cached during set-up
	reqs []mixRequest
	// mustReach is the index of the mixQuality-th fresh RAHTM request; the
	// clients keep going past the deadline until it is answered.
	mustReach int
}

// newMixPlan generates n requests from seed.
func newMixPlan(seed int64, n int) (*mixPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &mixPlan{mustReach: -1}
	for i := 0; i < mixWarm; i++ {
		body, err := randomBody(rng, "")
		if err != nil {
			return nil, err
		}
		p.warm = append(p.warm, body)
	}
	fresh := 0
	for len(p.reqs) < n {
		for _, j := range rng.Perm(len(mixBlock)) {
			q := mixRequest{kind: mixBlock[j]}
			var err error
			switch q.kind {
			case 'H':
				q.warm = rng.Intn(mixWarm)
				q.body = p.warm[q.warm]
			case 'R':
				q.body, err = randomBody(rng, "")
				if fresh++; fresh == mixQuality {
					p.mustReach = len(p.reqs)
				}
			case 'B':
				q.body, err = randomBody(rng, baselineMappers[rng.Intn(len(baselineMappers))])
			}
			if err != nil {
				return nil, err
			}
			p.reqs = append(p.reqs, q)
		}
	}
	if p.mustReach < 0 {
		return nil, fmt.Errorf("plan of %d requests holds fewer than %d fresh RAHTM solves", n, mixQuality)
	}
	return p, nil
}

// randomBody draws a random sparse graph — every process sends to
// mixDegree random peers with integer volumes in [1, 64] — and returns the
// JSON request mapping it with mapper ("" = RAHTM).
func randomBody(rng *rand.Rand, mapper string) ([]byte, error) {
	g := rahtm.NewGraph(mixProcs)
	for v := 0; v < mixProcs; v++ {
		for k := 0; k < mixDegree; k++ {
			if d := rng.Intn(mixProcs); d != v {
				g.AddTraffic(v, d, float64(1+rng.Intn(64)))
			}
		}
	}
	var text strings.Builder
	if _, err := g.WriteTo(&text); err != nil {
		return nil, err
	}
	return json.Marshal(rahtm.Request{Graph: text.String(), Topo: mixTopo, Conc: mixConc, Mapper: mapper})
}

// mixSetup is one set-up: the plan and a started daemon that has solved
// and cached the warm set.
type mixSetup struct {
	plan       *mixPlan
	d          *daemon
	warm       []reply
	gen, total time.Duration
}

func (b *bench) setupMix(ctx context.Context, n int) (*mixSetup, error) {
	s := &mixSetup{}
	start := time.Now()
	var err error
	if s.plan, err = newMixPlan(b.cfg.seed, n); err != nil {
		return nil, err
	}
	s.gen = time.Since(start)
	if s.d, err = startDaemon(serve.Config{Workers: 1, MaxParallelism: 2}); err != nil {
		return nil, err
	}
	for _, body := range s.plan.warm {
		s.warm = append(s.warm, s.d.post(ctx, body))
	}
	s.total = time.Since(start)
	return s, nil
}

func runServeMix(ctx context.Context, b *bench) error {
	n := max(mixPlanRate*int(b.cfg.seconds/time.Second), 8*mixQuality)
	// Set up mixSetups times for a steady setup_s; the last set-up serves
	// the run.
	var s *mixSetup
	var total, gen []float64
	for i := 0; i < mixSetups; i++ {
		if s != nil {
			if err := s.d.stop(); err != nil {
				return err
			}
			s = nil
		}
		runtime.GC() // each set-up starts from a collected heap; see setupOffline
		var err error
		if s, err = b.setupMix(ctx, n); err != nil {
			return err
		}
		total = append(total, s.total.Seconds())
		gen = append(gen, s.gen.Seconds())
	}
	b.set("setup_s", "s", median(total), mixSetups)
	b.set("workload.gen_s", "s", median(gen), mixSetups)
	plan := s.plan

	// The closed loop. Request indices are handed out in order, and a
	// client stops at the first index drawn past the deadline (and past
	// mustReach), so the answered requests are always a prefix of the plan.
	before := rahtm.Metrics()
	replies := make([]reply, len(plan.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(b.cfg.seconds)
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan.reqs) || (i > plan.mustReach && time.Now().After(deadline)) {
					return
				}
				b.tr.call("POST /solve", "serve", 0, "", func(int64) { replies[i] = s.d.post(ctx, plan.reqs[i].body) })
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	delta := rahtm.Metrics().Sub(before)
	if err := s.d.stop(); err != nil {
		return err
	}
	answered := 0
	for answered < len(replies) && replies[answered].done {
		answered++
	}
	if answered == len(replies) {
		fmt.Printf("# plan of %d requests exhausted after %v\n", answered, wall)
	}
	return b.reportMix(ctx, s, replies[:answered], wall, delta)
}

// reportMix checks the warm-up answers and every reply of the loop, and
// sets the serve-mix metrics.
func (b *bench) reportMix(ctx context.Context, s *mixSetup, replies []reply, wall time.Duration, delta rahtm.MetricsSnapshot) error {
	torus := rahtm.NewTorus(mixTopo...)
	var sv serveSample
	warm := make([]*rahtm.Comm, len(s.warm))
	for i, r := range s.warm {
		b.attempted++
		g, err := sv.materialize(b.tr, s.plan.warm[i])
		if err != nil {
			return err
		}
		warm[i] = g
		if r.err != nil {
			b.failf("warm-up %d: %v", i, r.err)
		} else if _, err := checkMapping(b.tr, torus, g, mixConc, r.res.Mapping, r.res.MCL, 0, r.res.TraceID); err != nil {
			b.failf("warm-up %d: %v", i, err)
		}
	}

	var lats, solveS, mclRel, commRel []float64
	var layers []solveLayers
	quality := map[int]*rahtm.Comm{} // the first mixQuality fresh RAHTM requests
	var qualityIdx []int
	plannedHits := 0
	for i, r := range replies {
		q := s.plan.reqs[i]
		b.attempted++
		if q.kind == 'H' {
			plannedHits++
		}
		if r.err != nil {
			b.failf("request %d (%c): %v", i, q.kind, r.err)
			continue
		}
		g := warm[q.warm]
		if q.kind != 'H' {
			var err error
			if g, err = sv.materialize(b.tr, q.body); err != nil {
				return err
			}
		}
		eval, err := checkMapping(b.tr, torus, g, mixConc, r.res.Mapping, r.res.MCL, 0, r.res.TraceID)
		if err != nil {
			b.failf("request %d (%c): %v", i, q.kind, err)
			continue
		}
		if r.res.Cached != (q.kind == 'H') {
			b.failf("request %d (%c): cached=%v", i, q.kind, r.res.Cached)
			continue
		}
		if q.kind == 'H' && !sameMapping(r.res.Mapping, s.warm[q.warm].res.Mapping) {
			b.failf("request %d: cache hit differs from the warm-up answer", i)
			continue
		}
		if q.kind == 'R' && (r.res.Degraded || r.res.Stats == nil) {
			b.failf("request %d: degraded or stats-less RAHTM result", i)
			continue
		}
		lats = append(lats, millis(r.latency))
		sv.add(r)
		if q.kind != 'R' {
			continue
		}
		solveS = append(solveS, r.res.WallMS/1000)
		var l solveLayers
		l.add(&r.res, time.Duration(r.res.WallMS*float64(time.Millisecond)))
		l.eval = eval
		var rep *rahtm.CommReport
		l.hopBytes, _ = b.tr.call("HopBytes", "metrics", 0, r.res.TraceID, func(int64) { rahtm.HopBytes(torus, g, r.res.Mapping) })
		l.commTime, _ = b.tr.call("CommTime", "netsim", 0, r.res.TraceID, func(int64) {
			rep, err = rahtm.CommTime(torus, g, r.res.Mapping, rahtm.Model{})
		})
		if err != nil {
			b.failf("request %d: comm time: %v", i, err)
			continue
		}
		layers = append(layers, l)
		if len(qualityIdx) < mixQuality {
			def := &problem{name: fmt.Sprint("request ", i), work: &rahtm.Workload{Graph: g}, torus: torus, conc: mixConc}
			if err := reference(def); err != nil {
				return err
			}
			mclRel = append(mclRel, r.res.MCL/def.defMCL)
			commRel = append(commRel, rep.Time/def.defComm)
			quality[i] = g
			qualityIdx = append(qualityIdx, i)
		}
	}
	if sv.hits != plannedHits {
		b.failf("measured %d cache hits, the plan has %d", sv.hits, plannedHits)
	}
	if len(mclRel) < mixQuality {
		b.failf("only %d of the first %d fresh RAHTM requests answered correctly", len(mclRel), mixQuality)
	}
	b.set("qps", "1/s", float64(len(lats))/wall.Seconds(), len(lats))
	b.set("latency_p50_ms", "ms", quantile(lats, 0.5), len(lats))
	b.set("latency_p90_ms", "ms", quantile(lats, 0.9), len(lats))
	b.set("solve_s", "s", median(solveS), len(solveS))
	b.set("mcl_rel", "ratio", geomean(mclRel), len(mclRel))
	b.set("comm_rel", "ratio", geomean(commRel), len(commRel))
	b.samples["requests"] = len(replies)
	b.samples["planned_hit_ratio"] = ratio(float64(plannedHits), float64(len(replies)))
	b.samples["run_wall_s"] = wall.Seconds()

	if b.tr == nil {
		return nil
	}
	b.reportLayers(layers)
	b.reportServe(&sv, delta)
	b.set("graph.freeze_s", "s", median(sv.freezeS), len(sv.freezeS))
	fresh := len(sv.solveMS)
	b.set("graph.build", "count", ratio(float64(delta.Counter("graph.build")), float64(fresh)), fresh)
	b.set("graph.freeze", "count", ratio(float64(delta.Counter("graph.freeze")), float64(fresh)), fresh)
	return b.directSolves(ctx, quality, replies, qualityIdx[:min(mixDirect, len(qualityIdx))])
}

// directSolves solves fresh RAHTM problems in-process, untraced and then
// traced, at the daemon's parallelism, for the trace.* metrics. Both
// answers must equal the daemon's.
func (b *bench) directSolves(ctx context.Context, graphs map[int]*rahtm.Comm, replies []reply, idx []int) error {
	torus := rahtm.NewTorus(mixTopo...)
	roots := map[int64]bool{}
	var traced, untraced []float64
	for _, i := range idx {
		for _, tr := range []*tracer{nil, b.tr} {
			b.attempted++
			scope := rahtm.NewScope("")
			req := rahtm.Request{Work: &rahtm.Workload{Name: "inline", Graph: graphs[i], CommFraction: 0.5},
				Torus: torus, Conc: mixConc, Parallelism: 2}
			var res *rahtm.Result
			var err error
			d, id := tr.call("Solve", "rahtm", 0, scope.TraceID, func(id int64) {
				if tr != nil {
					req.Observer = newPipelineObserver(tr, id, scope.TraceID)
				}
				res, err = rahtm.Solve(rahtm.WithScope(ctx, scope), req)
			})
			if err != nil {
				b.failf("direct solve of request %d: %v", i, err)
				continue
			}
			if !sameMapping(res.Mapping, replies[i].res.Mapping) {
				b.failf("direct solve of request %d differs from the daemon's answer", i)
				continue
			}
			if tr == nil {
				untraced = append(untraced, d.Seconds())
			} else {
				traced = append(traced, d.Seconds())
				roots[id] = true
			}
		}
	}
	b.reportTrace(roots, len(traced), traced, untraced)
	return nil
}
