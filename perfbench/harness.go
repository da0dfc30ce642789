package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/mech"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// bench is one run of one workload.
type bench struct {
	cfg     config
	dir     string // this run's scratch directory, removed at the end
	out     io.Writer
	tr      *tracer // nil when untraced
	client  http.Client
	metrics map[string]metric
	details map[string]any

	attempted, failed int
	failures          []string
	seq               int

	// Counts made around the daemon's own calls: measurements and
	// optimizer restarts taken by fresh HTTP registrations.
	measured, restarts int64
	rounds             int // rounds (or epochs) completed
	// Registry lookups and hits of the traced replay.
	hits, lks int
}

// fail counts one failed operation or correctness check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	msg := fmt.Sprintf(format, args...)
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
}

// check counts one correctness check, failing it unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// newDir returns a fresh directory under the run's scratch directory.
func (b *bench) newDir(kind string) string {
	b.seq++
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", kind, b.seq))
}

// daemon is one Server behind a loopback HTTP listener.
type daemon struct {
	srv   *server.Server
	ts    *httptest.Server
	cache string
	snaps string
}

func newServer(cache, snaps string) (*server.Server, error) {
	return server.New(server.Config{
		CacheDir:             cache,
		SnapshotDir:          snaps,
		Workers:              workers,
		Logger:               slog.New(slog.NewTextHandler(io.Discard, nil)),
		SlowRequestThreshold: -1,
	})
}

func (b *bench) boot(cache, snaps string) (*daemon, error) {
	srv, err := newServer(cache, snaps)
	if err != nil {
		return nil, err
	}
	if b.client.Transport == nil {
		b.client.Transport = &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 4, DisableCompression: true}
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv), cache: cache, snaps: snaps}, nil
}

// close stops the listener and drops the daemon, so that its engines can
// be collected before the next one boots.
func (d *daemon) close() {
	d.ts.Close()
	d.ts, d.srv = nil, nil
}

// post sends one JSON request and reads the whole response; the latency
// runs from sending until the last response byte has arrived.
func (b *bench) post(url string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := b.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, time.Since(start), err
}

// registered is one tenant registration as the client saw it.
type registered struct {
	t       tenant
	x       []float64
	eps     float64
	body    []byte
	resp    server.RegisterResponse
	latency time.Duration
}

// register sends one fresh registration and checks that it took exactly
// one measurement. It reports false when the registration failed.
func (b *bench) register(d *daemon, r *registered) bool {
	b.attempted++
	m0, r0 := mech.MeasurementsTaken(), core.RestartsPerformed()
	code, data, lat, err := b.post(d.ts.URL+"/v1/engines", r.body)
	taken := mech.MeasurementsTaken() - m0
	b.measured += taken
	b.restarts += core.RestartsPerformed() - r0
	r.latency = lat
	if err != nil || code != http.StatusCreated {
		b.fail("register %s: status %d, err %v: %.200s", r.t.name, code, err, data)
		return false
	}
	if err := json.Unmarshal(data, &r.resp); err != nil {
		b.fail("register %s: decoding response: %v", r.t.name, err)
		return false
	}
	b.check(!r.resp.Reused && taken == 1, "register %s: fresh registration took %d measurements (reused=%v), want exactly 1", r.t.name, taken, r.resp.Reused)
	return true
}

// prepare draws a tenant's data, budget and noise seed from the given
// seeds and encodes its registration body.
func prepare(t tenant, dataSeed, epsSeed, noise uint64) (*registered, error) {
	x := t.data(dataSeed)
	eps := drawEps(epsSeed)
	body, err := json.Marshal(t.request(x, eps, noise))
	if err != nil {
		return nil, err
	}
	return &registered{t: t, x: x, eps: eps, body: body}, nil
}

// probe answers each registered tenant's probe product over HTTP; the
// answers are what a recovered daemon must reproduce bit for bit.
func (b *bench) probe(d *daemon, regs []*registered) [][][]float64 {
	out := make([][][]float64, len(regs))
	for i, r := range regs {
		if r.resp.Key == "" {
			continue
		}
		body, _ := json.Marshal(server.AnswerRequest{Queries: []string{r.t.probeQuery()}})
		b.attempted++
		code, data, _, err := b.post(d.ts.URL+"/v1/engines/"+r.resp.Key+"/answer", body)
		var ans server.AnswerResponse
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(data, &ans)
		}
		if err != nil || code != http.StatusOK {
			b.fail("probe answer %s: status %d, err %v", r.t.name, code, err)
			continue
		}
		out[i] = ans.Answers
	}
	return out
}

// probeQuery is an admissible product with a few hundred to a few
// thousand rows over the tenant's domain.
func (t tenant) probeQuery() string {
	switch t.name {
	case sf1.name:
		return "I,I,T,T,P"
	case cpsRange.name:
		return "P,T,T,I,T"
	case adult3.name:
		return "I,T,T,T,I"
	case union64.name:
		return "R,T,T"
	case cphUnion.name:
		return "I,T,T,T,P"
	}
	return t.queries[0]
}

// recoverOnce boots a fresh Server over a snapshot directory (the boot
// returns once every engine is live) and checks that the recovered
// engines took no new measurement and answer the probes bit-identically
// to the daemon that wrote the snapshots. It returns the boot time.
func (b *bench) recoverOnce(cache, snaps string, regs []*registered, probes [][][]float64) (time.Duration, error) {
	m0 := mech.MeasurementsTaken()
	b.attempted++
	start := time.Now()
	srv, err := newServer(cache, snaps)
	boot := time.Since(start)
	if err != nil {
		return 0, err
	}
	live := 0
	for _, r := range regs {
		if r.resp.Key != "" {
			live++
		}
	}
	b.check(srv.Metrics().Engines == live, "recovery: %d engines live, want %d", srv.Metrics().Engines, live)
	for i, r := range regs {
		if probes[i] == nil {
			continue
		}
		got, err := srv.Answer(r.resp.Key, &server.AnswerRequest{Queries: []string{r.t.probeQuery()}})
		if err != nil {
			b.check(false, "recovered %s: answer: %v", r.t.name, err)
			continue
		}
		want := probes[i]
		if b.cfg.injectWrongAnswer && i == 0 {
			want = corrupt(want)
		}
		b.check(identical(got.Answers, want), "recovered %s answers differ from the daemon that wrote its snapshot", r.t.name)
	}
	b.check(mech.MeasurementsTaken() == m0, "recovery took %d measurements, want 0", mech.MeasurementsTaken()-m0)
	return boot, nil
}

// rmseFactor bounds the empirical RMSE of a tenant's private workload
// answers against its expected_rmse: within a factor of 2 either way.
// The Laplace noise of thousands of measurements concentrates far more
// tightly than that, so a miss means the estimate is wrong, not unlucky.
const rmseFactor = 2.0

// checkRMSE compares the private answers of the first tenant of each
// shape, read from its snapshot's estimate, with the true answers on the
// seeded data.
func (b *bench) checkRMSE(snaps string, regs []*registered) error {
	st, err := snapshot.Open(snaps, nil)
	if err != nil {
		return err
	}
	checked := map[string]bool{}
	for _, r := range regs {
		// One tenant per shape: the check costs a Kronecker pass per
		// workload product, and tenants of one shape share the code path.
		if r.resp.Key == "" || r.x == nil || checked[r.t.name] {
			continue
		}
		checked[r.t.name] = true
		sn, err := st.Load(r.resp.Key)
		if err != nil {
			b.check(false, "rmse %s: loading snapshot: %v", r.t.name, err)
			continue
		}
		b.checkTenantRMSE(r, sn.Xhat)
	}
	return nil
}

func (b *bench) checkTenantRMSE(r *registered, xhat []float64) {
	products, err := workload.ParseProducts(r.t.queries, r.t.domain)
	if err != nil {
		b.check(false, "rmse %s: %v", r.t.name, err)
		return
	}
	w := workload.MustNew(schema.Sizes(r.t.domain...), products...)
	diff := make([]float64, len(xhat))
	for i := range diff {
		diff[i] = xhat[i] - r.x[i]
	}
	// Σ over every workload query of its squared error, without
	// enumerating the queries (the CPS range workload has 6.5 million).
	sq := mech.WorkloadQuadraticError(w, diff)
	emp := math.Sqrt(sq / float64(w.NumQueries()))
	want := r.resp.ExpectedRMSE
	b.details["rmse_"+r.t.name] = map[string]float64{"empirical": emp, "expected": want}
	b.check(emp >= want/rmseFactor && emp <= want*rmseFactor,
		"rmse %s: empirical %.4g outside [%.4g, %.4g] around expected %.4g", r.t.name, emp, want/rmseFactor, want*rmseFactor, want)
}

// identical reports whether two answer sets are bit-identical.
func identical(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// corrupt returns a copy of ans with the last bit of its first value
// flipped: the smallest wrong answer.
func corrupt(ans [][]float64) [][]float64 {
	out := make([][]float64, len(ans))
	for i := range ans {
		out[i] = append([]float64(nil), ans[i]...)
	}
	if len(out) > 0 && len(out[0]) > 0 {
		out[0][0] = math.Float64frombits(math.Float64bits(out[0][0]) ^ 1)
	}
	return out
}

// rmseAtEps1 is a registration's expected RMSE scaled to ε = 1 (the
// Laplace RMSE is proportional to 1/ε), so that it measures the strategy
// and not the seeded budget.
func (r *registered) rmseAtEps1() float64 { return r.resp.ExpectedRMSE * r.eps }

// stagesOf fetches the daemon's own stage breakdown of a registration.
func (b *bench) stagesOf(d *daemon, key string) (*server.EngineInfo, error) {
	resp, err := b.client.Get(d.ts.URL + "/v1/engines/" + key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var info server.EngineInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}
