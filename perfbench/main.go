// Command perfbench is the repository's whole-pipeline benchmark. It drives
// the HDMM daemon (server.New behind a loopback httptest server, in this
// process) through one of three closed-loop workloads, checks the daemon's
// outputs, and prints the report followed by one JSON result line:
//
//	cold-release  one client registers a fixed mix of tenants on an empty
//	              strategy registry: strategy selection dominates.
//	warm-churn    one client registers many tenants whose strategies are
//	              cached, in epochs; after each epoch the daemon restarts
//	              over that epoch's snapshots: measurement, reconstruction
//	              (including a 100+-iteration LSMR solve), snapshot writes
//	              and recovery dominate.
//	answer-serve  two clients send answer batches to engines registered in
//	              set-up: request parsing, admission, Kronecker contraction
//	              and response encoding dominate.
//
// With -trace 1 the same workload is run with every operation replayed
// layer by layer from this package, each call into a layer's exported
// function inside a span; the per-layer metrics come from those spans.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload warm-churn --seed 7 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	commit   string
	// setups overrides how many times set-up is repeated (0 keeps each
	// workload's own count); setup_s is their median.
	setups int
	// epochTenants is the number of SF1-shaped tenants per warm-churn epoch
	// (each epoch adds one union tenant).
	epochTenants int
	// injectWrongAnswer corrupts one answer before it is checked, to show
	// that the checks catch a wrong answer.
	injectWrongAnswer bool
}

var workloads = map[string]func(*bench) error{
	"cold-release": (*bench).coldRelease,
	"warm-churn":   (*bench).warmChurn,
	"answer-serve": (*bench).answerServe,
}

func main() {
	cfg := config{epochTenants: 9}
	flag.StringVar(&cfg.workload, "workload", "", "cold-release, warm-churn or answer-serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: tenant data, budgets, noise seeds and request draws")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time: rounds run until their summed time reaches it (a started round is finished; checks and recovery between rounds are not counted)")
	trace := flag.Int("trace", 0, "1: replay every operation layer by layer and report the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench/work", "scratch directory for caches, snapshots and span files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit of the code under test, recorded in the output")
	flag.Parse()
	cfg.trace = *trace == 1
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || workloads[cfg.workload] == nil || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold-release|warm-churn|answer-serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	res, err := execute(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and writes the report and the result line to
// out. An error means the run could not be carried out at all; failed
// operations and checks are counted in the result instead.
func execute(cfg config, out io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, dir: dir, out: out, metrics: map[string]metric{}, details: map[string]any{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	env := captureEnv(cfg.commit, cfg.seed, cfg.workload, cfg.trace)
	b.printJSON("env", env)
	if env.Label != "" {
		fmt.Fprintf(out, "WARNING: kernel backend %q is not the reference backend this benchmark is defined on\n", env.Kernels)
	}
	if err := workloads[cfg.workload](b); err != nil {
		return nil, err
	}
	b.client.CloseIdleConnections()
	if cfg.trace {
		if err := b.finishTrace(); err != nil {
			return nil, err
		}
	} else {
		b.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	b.details["failures"] = b.failures
	b.details["failed_ratio"] = float64(b.failed) / float64(max(b.attempted, 1))
	b.printJSON("details", b.details)
	res := &result{
		Correct:   b.failed == 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

// printJSON writes one labelled report line.
func (b *bench) printJSON(label string, v any) {
	line, err := json.Marshal(v)
	if err != nil {
		line = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(b.out, "%s: %s\n", label, line)
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// sample records a timing's median with its sample count in the details.
func (b *bench) sample(name string, xs []float64) float64 {
	m := median(xs)
	b.details[name] = map[string]any{"median": m, "n": len(xs)}
	return m
}

// timeSetup runs set-up n times (or cfg.setups times when set) and
// reports the median as setup_s; the last set-up's state is the one the
// workload runs on.
func (b *bench) timeSetup(n int, setup func() error) error {
	if b.cfg.setups > 0 {
		n = b.cfg.setups
	}
	var xs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	if !b.cfg.trace {
		b.set("setup_s", b.sample("setup_s", xs), "s")
	}
	return nil
}

// sortedKeys returns m's keys in order, for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
