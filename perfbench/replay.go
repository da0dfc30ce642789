package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/mech"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// The traced run replays each operation from this file, calling the
// exported function of every layer the daemon's own code path calls, in
// the same order and with the same arguments, each inside a span. The
// replay then checks that it reproduced the daemon's result, so the spans
// describe the work the daemon did.

// replayed is what a replayed registration produced.
type replayed struct {
	operator string
	rmse     float64
	wall     time.Duration
	// stages sums replay spans onto the daemon's own stage names, for
	// reconciliation with EngineInfo.Stages.
	stages map[string]float64
}

// traceRegister registers r over HTTP (untraced), replays the same
// registration layer by layer against reg and store, and reconciles the
// replay with the daemon's own stage breakdown of the HTTP registration.
func (b *bench) traceRegister(d *daemon, r *registered, kind string, reg *registry.Registry, store *snapshot.Store) {
	if !b.register(d, r) {
		return
	}
	b.tr.beginOp(kind)
	rep, err := b.replayRegister(r, reg, store)
	if err != nil {
		b.check(false, "replay %s: %v", r.t.name, err)
		return
	}
	b.check(rep.operator == r.resp.Operator && rep.rmse == r.resp.ExpectedRMSE,
		"replay %s selected %s (rmse %v), the daemon %s (rmse %v)", r.t.name, rep.operator, rep.rmse, r.resp.Operator, r.resp.ExpectedRMSE)
	b.tr.note("trace.overhead_ms", ms(rep.wall-r.latency))
	info, err := b.stagesOf(d, r.resp.Key)
	if err != nil {
		b.check(false, "engine info %s: %v", r.t.name, err)
		return
	}
	daemon, replay := 0.0, 0.0
	for _, st := range info.Stages {
		daemon += st.Ms
		replay += rep.stages[st.Stage]
	}
	if daemon > 0 {
		b.tr.note("trace.reconcile_ratio", replay/daemon)
	}
	b.details[fmt.Sprintf("reconcile_op%d_%s", b.tr.op, r.t.name)] = map[string]any{"daemon_stages_ms": info.Stages, "replay_stages_ms": rep.stages}
}

// replayRegister is the daemon's registration path (request decode,
// workload parse, strategy lookup or selection, measurement,
// reconstruction, snapshot) with a span around each layer call.
func (b *bench) replayRegister(r *registered, reg *registry.Registry, store *snapshot.Store) (*replayed, error) {
	t := b.tr
	rep := &replayed{stages: map[string]float64{}}
	stage := func(name string, d time.Duration) { rep.stages[name] += ms(d) }
	root := t.begin("server.register")
	defer func() { rep.wall = t.end(root) }()

	s := t.begin("server.register_decode")
	var req server.RegisterRequest
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	t.end(s)

	s = t.begin("workload.parse")
	products, err := workload.ParseProducts(req.Queries, req.Domain)
	if err != nil {
		return nil, err
	}
	w, err := workload.New(schema.Sizes(req.Domain...), products...)
	if err != nil {
		return nil, err
	}
	x := append([]float64(nil), req.Data...)
	stage("parse", t.end(s))

	sel := core.HDMMOptions{Restarts: req.Restarts, Seed: req.OptSeed, Workers: workers, CacheDir: reg.Dir()}
	key := registry.Key(w, sel)
	s = t.begin("registry.lookup")
	rec, hit, err := reg.Get(key)
	d := t.end(s)
	stage("optimize", d)
	b.lks++
	if err != nil {
		return nil, err
	}
	if hit {
		b.hits++
	} else {
		start := time.Now()
		rec = b.replaySelect(w, sel)
		s = t.begin("registry.put")
		if err := reg.Put(key, rec); err != nil {
			return nil, err
		}
		t.end(s)
		stage("optimize", time.Since(start))
	}
	rep.operator = rec.Operator

	op := rec.Strategy.Operator()
	s = t.begin("mech.measure")
	y := mech.MeasureCtx(context.Background(), op, x, req.Eps, mech.NoiseRNG(req.Seed))
	stage("measure", t.end(s))
	rep.rmse = math.Sqrt(2*rec.Err/float64(w.NumQueries())) / req.Eps

	s = t.begin("core.reconstruct")
	start := time.Now()
	var xhat []float64
	if us, ok := rec.Strategy.(*core.UnionStrategy); ok {
		otr := obs.NewTrace("replay")
		var si core.SolveInfo
		xhat, err = us.ReconstructOpt(y, core.ReconstructOptions{Info: &si, Trace: otr})
		end := time.Now()
		var pre, solve time.Duration
		for _, sp := range otr.Spans() {
			switch sp.Stage {
			case obs.StagePrecondition:
				pre = sp.Total
			case obs.StageSolve:
				solve = sp.Total
			}
		}
		t.record("core.precondition", start, start.Add(pre))
		t.record("lsmr.solve", end.Add(-solve), end)
		t.note("lsmr.iters", float64(si.Iters))
		if si.Iters > 0 {
			t.note("lsmr.iter_ms", ms(solve)/float64(si.Iters))
		}
	} else {
		xhat, err = rec.Strategy.Reconstruct(y)
	}
	if err != nil {
		return nil, err
	}
	// The daemon reports this as precondition plus solve; reconciliation
	// compares sums, so it is booked whole under solve.
	stage("solve", t.end(s))

	// The strategy-operator application inside the measurement, timed on
	// its own (it is not separable from the noise draw inside Measure).
	s = t.begin("kron.strategy_matvec")
	rows, _ := op.Dims()
	op.MatVec(make([]float64, rows), x)
	t.end(s)

	sum := sha256.Sum256(r.body)
	sn := &snapshot.Snapshot{
		Key: "replay-" + hex.EncodeToString(sum[:8]), StrategyKey: key,
		Eps: req.Eps, Seed: req.Seed, RootMSE: rep.rmse,
		Domain: req.Domain, Queries: req.Queries,
		Record: rec, Y: y, Xhat: xhat,
	}
	s = t.begin("snapshot.encode")
	blob, err := snapshot.Encode(sn)
	if err != nil {
		return nil, err
	}
	t.end(s)
	t.note("snapshot.bytes", float64(len(blob)))
	s = t.begin("snapshot.save")
	if err := store.Save(sn); err != nil {
		return nil, err
	}
	t.end(s)

	if r.t.name != cphUnion.name && !hit {
		b.replayObjGrad(w)
	}
	return rep, nil
}

// replaySelect is core.Select (Algorithm 2) with a span around every
// operator call: the restarts run concurrently on up to workers
// goroutines, each trying OPT⊗, OPT+ and OPT_M with the seeds Select
// derives, and the lowest-error candidate wins, compared in Select's
// order so the winner is the daemon's.
func (b *bench) replaySelect(w *workload.Workload, opts core.HDMMOptions) *core.Selected {
	t := b.tr
	s := t.begin("core.select")
	defer t.end(s)
	for _, p := range w.Products {
		for _, term := range p.Terms {
			term.Gram()
		}
	}
	type call struct {
		name     string
		from, to time.Time
	}
	n := opts.Normalized()
	calls := make([][]call, n.Restarts)
	cands := make([][]*core.Selected, n.Restarts)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for r := 0; r < n.Restarts; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			seed := opts.Seed*1_000_003 + uint64(r)
			timed := func(name string, f func() (core.Strategy, float64, error), op string) {
				from := time.Now()
				st, e, err := f()
				calls[r] = append(calls[r], call{name, from, time.Now()})
				if err == nil {
					cands[r] = append(cands[r], &core.Selected{Strategy: st, Err: e, Operator: op})
				}
			}
			timed("core.opt_kron", func() (core.Strategy, float64, error) {
				return core.OPTKron(w, core.OPTKronOptions{Seed: seed, Workers: opts.Workers})
			}, "OPT⊗")
			if len(w.Products) >= 2 {
				timed("core.opt_plus", func() (core.Strategy, float64, error) {
					return core.OPTPlus(w, core.OPTPlusOptions{Kron: core.OPTKronOptions{Seed: seed + 17, Workers: opts.Workers}})
				}, "OPT+")
			}
			if w.Domain.NumAttrs() <= n.MaxMargDims {
				timed("core.opt_marg", func() (core.Strategy, float64, error) {
					return core.OPTMarg(w, core.OPTMargOptions{Seed: seed + 43, Workers: opts.Workers})
				}, "OPT_M")
			}
		}(r)
	}
	wg.Wait()
	for _, cs := range calls {
		for _, c := range cs {
			t.record(c.name, c.from, c.to)
		}
	}
	best := &core.Selected{Strategy: &core.IdentityStrategy{N: w.Domain.Size()}, Err: w.GramTrace(), Operator: "Identity"}
	for _, cs := range cands {
		for _, c := range cs {
			if c.Err < best.Err {
				best = c
			}
		}
	}
	return best
}

// replayObjGrad times single OPT₀ objective-plus-gradient evaluations on
// the workload's largest attribute: the Gram of that attribute's distinct
// predicate sets, at the p the paper's convention gives it.
func (b *bench) replayObjGrad(w *workload.Workload) {
	attr := 0
	for i := range w.Domain.AttrSizes() {
		if w.Domain.Attr(i).Size > w.Domain.Attr(attr).Size {
			attr = i
		}
	}
	n := w.Domain.Attr(attr).Size
	y := mat.NewDense(n, n)
	seen := map[workload.PredicateSet]bool{}
	for _, p := range w.Products {
		term := p.Terms[attr]
		if seen[term] {
			continue
		}
		seen[term] = true
		yd, gd := y.Data(), term.Gram().Data()
		for i := range yd {
			yd[i] += gd[i]
		}
	}
	p := core.DefaultP(w)[attr]
	f := core.NewOpt0ObjectiveForTrace(y, p)
	rng := rand.New(rand.NewPCG(b.cfg.seed, uint64(n)))
	theta := make([]float64, p*n)
	for i := range theta {
		theta[i] = rng.Float64()
	}
	grad := make([]float64, p*n)
	for i := 0; i < 5; i++ {
		s := b.tr.begin("optimize.objgrad")
		f(theta, grad)
		b.tr.end(s)
	}
}

// replayRecover is the daemon's boot recovery, one snapshot at a time:
// read and decode, then rehydrate the engine.
func (b *bench) replayRecover(snaps string) error {
	store, err := snapshot.Open(snaps, nil)
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(snaps)
	if err != nil {
		return err
	}
	b.tr.beginOp("recover")
	root := b.tr.begin("server.recover")
	defer b.tr.end(root)
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), snapshot.FileExt)
		if !ok || e.IsDir() {
			continue
		}
		s := b.tr.begin("snapshot.load")
		sn, err := store.Load(key)
		b.tr.end(s)
		if err != nil {
			return err
		}
		s = b.tr.begin("serve.restore")
		_, err = serve.Restore(sn, workers)
		b.tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}
