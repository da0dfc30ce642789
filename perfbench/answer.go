package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/workload"
)

const (
	answerClients = 2
	// A round is a burst of wide requests then a burst of deep ones, each
	// client sending its share and waiting at the end of each burst. The
	// classes do not overlap, so a wide request never queues behind the
	// other client's contraction and each class's latency measures its own
	// path; round_s covers both.
	wideBurst    = 24  // wide requests per client per round
	deepBurst    = 8   // deep requests per client per round
	poolRounds   = 8   // distinct rounds drawn per client, then cycled
	wideProducts = 256 // products per wide request
	verifyEvery  = 8   // every 8th response of each client is checked bit for bit,
	verifyWide   = 24  // up to this many wide
	verifyDeep   = 8   // and deep responses per client, so memory does not grow with run length
)

// answerReq is one pre-drawn answer request.
type answerReq struct {
	class   string // "wide" or "deep"
	engine  int    // index into the serving tenants
	queries []string
	body    []byte
}

// served is a tenant registered during answer-serve set-up, with the
// in-process engine built from the same inputs that its HTTP answers must
// match bit for bit.
type served struct {
	reg    *registered
	mirror *serve.Engine
}

// answerServe: two clients in a closed loop send answer batches to
// engines registered during set-up: wide batches of many tiny products on
// a small domain, and deep batches of one or two products contracted over
// the SF1 or CPS domain.
func (b *bench) answerServe() error {
	var d *daemon
	var tenants []served
	var pools [answerClients]pool
	err := b.timeSetup(3, func() error {
		if d != nil {
			d.close()
		}
		cache := b.newDir("cache")
		var err error
		if d, err = b.boot(cache, b.newDir("snap")); err != nil {
			return err
		}
		tenants = tenants[:0]
		for i, t := range []tenant{sf1, cpsRange, wide} {
			r, err := prepare(t, mix(b.cfg.seed, 'a', uint64(i), 'd'), mix(b.cfg.seed, 'a', uint64(i), 'e'), mix(b.cfg.seed, 'a', uint64(i), 'n'))
			if err != nil {
				return err
			}
			if !b.register(d, r) {
				return fmt.Errorf("registering %s failed", t.name)
			}
			m, err := mirror(r, cache)
			if err != nil {
				return err
			}
			tenants = append(tenants, served{reg: r, mirror: m})
		}
		for c := range pools {
			pools[c] = drawRequests(rand.New(rand.NewPCG(mix(b.cfg.seed, 'a', 'c', uint64(c)), 0)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if b.tr != nil {
		if err := b.traceAnswers(d, tenants, &pools[0]); err != nil {
			return err
		}
	} else if err := b.loadAnswers(d, tenants, pools); err != nil {
		return err
	}
	regs := make([]*registered, len(tenants))
	var q []float64
	for i, s := range tenants {
		regs[i] = s.reg
		q = append(q, s.reg.rmseAtEps1())
	}
	boot, err := b.afterRound(d, regs, true, 9)
	if err != nil {
		return err
	}
	if b.tr == nil {
		b.set("recover_s", boot.Seconds(), "s")
		b.set("expected_rmse_geomean", geomean(q), "counts")
	}
	return nil
}

// mirror builds the in-process engine for a registration: the same
// workload, data, budget, noise seed and selection options, with the
// strategy read from the daemon's registry.
func mirror(r *registered, cache string) (*serve.Engine, error) {
	products, err := workload.ParseProducts(r.t.queries, r.t.domain)
	if err != nil {
		return nil, err
	}
	w, err := workload.New(schema.Sizes(r.t.domain...), products...)
	if err != nil {
		return nil, err
	}
	var req server.RegisterRequest
	if err := json.Unmarshal(r.body, &req); err != nil {
		return nil, err
	}
	return serve.NewEngine(w, r.x, r.eps, serve.Options{
		Selection: core.HDMMOptions{Restarts: restarts, Seed: r.t.optSeed, Workers: workers, CacheDir: cache},
		Seed:      req.Seed,
		Workers:   workers,
	})
}

// pool is one client's pre-drawn requests, by class.
type pool struct{ wide, deep []answerReq }

// drawRequests draws a client's request pool. Its composition is fixed,
// so the seed moves which products are asked and in what order, not how
// much work the pool holds: deep requests split evenly between SF1 and CPS
// and between one and two products. Wide requests carry wideProducts
// products over the small domain. Deep requests are shaped to stay within
// the daemon's default answer budget (an SF1 product charges its
// 500,480-cell intermediate, so two is the most one request may carry).
func drawRequests(rng *rand.Rand) pool {
	pick := func(xs ...string) string { return xs[rng.IntN(len(xs))] }
	var p pool
	for i := 0; i < poolRounds*wideBurst; i++ {
		r := answerReq{class: "wide", engine: 2}
		for j := 0; j < wideProducts; j++ {
			r.queries = append(r.queries, pick("I", "T")+","+pick("T", "I", "P", "W5", "W10", "W20", "W40"))
		}
		p.wide = append(p.wide, r)
	}
	for i := 0; i < poolRounds*deepBurst; i++ {
		r := answerReq{class: "deep", engine: i % 2}
		for j := 0; j <= (i/2)%2; j++ {
			if r.engine == 0 {
				r.queries = append(r.queries, strings.Join([]string{pick("T", "I"), pick("T", "I"), "I", "T", pick("P", "W5", "I")}, ","))
			} else {
				r.queries = append(r.queries, strings.Join([]string{pick("P", "W10"), pick("T", "P"), pick("I", "T"), "T", "T"}, ","))
			}
		}
		p.deep = append(p.deep, r)
	}
	for _, rs := range [][]answerReq{p.wide, p.deep} {
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		for i := range rs {
			rs[i].body, _ = json.Marshal(server.AnswerRequest{Queries: rs[i].queries})
		}
	}
	return p
}

// done is one completed answer request.
type done struct {
	class   string
	latency time.Duration
	req     *answerReq
	body    []byte // kept for a bounded sample of the responses
	err     string
}

// loadAnswers runs rounds for the configured time and reports the answer
// metrics.
func (b *bench) loadAnswers(d *daemon, tenants []served, pools [answerClients]pool) error {
	results := make([][]done, answerClients)
	kept := make([]map[string]int, answerClients)
	for c := range kept {
		kept[c] = map[string]int{}
	}
	limit := map[string]int{"wide": verifyWide, "deep": verifyDeep}
	// burst has every client send n requests of one class, from request
	// index at of its pool, and returns when all have their replies.
	burst := func(class string, n, at int) {
		var wg sync.WaitGroup
		for c := 0; c < answerClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				reqs := pools[c].wide
				if class == "deep" {
					reqs = pools[c].deep
				}
				for i := at; i < at+n; i++ {
					req := &reqs[i%len(reqs)]
					url := d.ts.URL + "/v1/engines/" + tenants[req.engine].reg.resp.Key + "/answer"
					code, data, lat, err := b.post(url, req.body)
					r := done{class: class, latency: lat, req: req}
					if err != nil || code != http.StatusOK {
						r.err = fmt.Sprintf("answer %s: status %d, err %v: %.200s", class, code, err, data)
					} else if i%verifyEvery == 0 && kept[c][class] < limit[class] {
						kept[c][class]++
						r.body = data
					}
					results[c] = append(results[c], r)
				}
			}(c)
		}
		wg.Wait()
	}
	var rounds, wideBursts, deepBursts []float64
	start := time.Now()
	for round := 0; round == 0 || sum(rounds) < b.cfg.seconds; round++ {
		t0 := time.Now()
		burst("wide", wideBurst, round*wideBurst)
		t1 := time.Now()
		burst("deep", deepBurst, round*deepBurst)
		rounds = append(rounds, time.Since(t0).Seconds())
		wideBursts = append(wideBursts, t1.Sub(t0).Seconds())
		deepBursts = append(deepBursts, time.Since(t1).Seconds())
	}
	elapsed := time.Since(start)

	lat := map[string][]float64{}
	var all []float64
	verified := 0
	for _, rs := range results {
		for _, r := range rs {
			b.attempted++
			if r.err != "" {
				b.fail("%s", r.err)
				continue
			}
			lat[r.class] = append(lat[r.class], ms(r.latency))
			all = append(all, ms(r.latency))
			if r.body != nil {
				b.verifyAnswer(tenants, r.req, r.body, verified == 0)
				verified++
			}
		}
	}
	b.details["answer_rps"] = float64(len(all)) / elapsed.Seconds()
	b.details["answer_requests"] = len(all)
	b.details["answers_verified"] = verified
	b.details["answer_p99_ms"] = map[string]any{"value": quantile(all, 0.99), "n": len(all)}
	b.sample("answer_deep_p50_ms", lat["deep"])
	b.sample("answer_wide_burst_s", wideBursts)
	b.sample("answer_deep_burst_s", deepBursts)
	b.set("p50_ms", b.sample("answer_wide_p50_ms", lat["wide"]), "ms")
	b.set("round_s", b.sample("answer_round_s", rounds), "s")
	return nil
}

// verifyAnswer checks one HTTP response bit for bit against the in-process
// engine's answer to the same batch.
func (b *bench) verifyAnswer(tenants []served, req *answerReq, body []byte, first bool) {
	var resp server.AnswerResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		b.check(false, "decoding %s answer: %v", req.class, err)
		return
	}
	eng := tenants[req.engine].mirror
	products, err := workload.ParseProducts(req.queries, eng.Workload().Domain.AttrSizes())
	if err != nil {
		b.check(false, "parsing %s batch: %v", req.class, err)
		return
	}
	want, err := eng.Answer(products)
	if err != nil {
		b.check(false, "in-process %s answer: %v", req.class, err)
		return
	}
	got := resp.Answers
	if b.cfg.injectWrongAnswer && first {
		got = corrupt(got)
	}
	b.check(identical(got, want), "%s answer over HTTP differs from in-process Engine.Answer", req.class)
}

// traceAnswers is the traced answer loop: one client sends each request
// over HTTP (untraced), then replays it layer by layer: parse, the
// daemon's whole programmatic answer path, the engine's answer alone, and
// the response encoding.
func (b *bench) traceAnswers(d *daemon, tenants []served, p *pool) error {
	dur := time.Duration(b.cfg.seconds * float64(time.Second))
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < dur; round++ {
		for i := 0; i < wideBurst+deepBurst; i++ {
			req := &p.wide[(round*wideBurst+i)%len(p.wide)]
			if i >= wideBurst {
				req = &p.deep[(round*deepBurst+i-wideBurst)%len(p.deep)]
			}
			if err := b.traceAnswer(d, tenants, req, round == 0 && (i == 0 || i == wideBurst)); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceAnswer sends one request over HTTP (untraced), then replays it.
func (b *bench) traceAnswer(d *daemon, tenants []served, req *answerReq, verify bool) error {
	ctx := context.Background()
	s := tenants[req.engine]
	b.attempted++
	code, data, lat, err := b.post(d.ts.URL+"/v1/engines/"+s.reg.resp.Key+"/answer", req.body)
	if err != nil || code != http.StatusOK {
		b.fail("answer %s: status %d, err %v", req.class, code, err)
		return nil
	}
	if verify {
		b.verifyAnswer(tenants, req, data, false)
	}
	t := b.tr
	t.beginOp(req.class)
	root := t.begin("server.answer")
	sp := t.begin("workload.parse_products")
	products, err := workload.ParseProducts(req.queries, s.mirror.Workload().Domain.AttrSizes())
	parse := t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("server.answer_ctx")
	resp, err := d.srv.AnswerCtx(ctx, s.reg.resp.Key, &server.AnswerRequest{Queries: req.queries})
	whole := t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("serve.answer")
	ans, err := s.mirror.AnswerCtx(ctx, products)
	engine := t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("server.answer_encode")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		return err
	}
	encode := t.end(sp)
	wall := t.end(root)
	values := 0
	for _, a := range ans {
		values += len(a)
	}
	t.note("server.admit_us", float64(whole-parse-engine)/float64(time.Microsecond))
	t.note("server.response_bytes", float64(buf.Len()))
	t.note("server.http_residual_ms", ms(lat-whole-encode))
	t.note("serve.answer_values", float64(values))
	t.note("trace.overhead_ms", ms(wall-lat))
	return nil
}
