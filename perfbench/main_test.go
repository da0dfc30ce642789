package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the result line must match.
type benchmarkSpec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// short is a configuration that finishes each workload in one round.
func short(t *testing.T, wl string, trace bool) config {
	return config{
		workload: wl, seed: 3, seconds: 0.001, trace: trace,
		workdir: t.TempDir(), commit: "test", setups: 1, epochTenants: 1,
	}
}

// runShort executes one configuration and returns the parsed result line.
func runShort(t *testing.T, cfg config) *result {
	t.Helper()
	var out bytes.Buffer
	res, err := execute(cfg, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
	}
	if !strings.HasPrefix(lines[0], "env: ") {
		t.Errorf("first report line %q does not record the environment", lines[0])
	}
	if last.Correct != res.Correct || last.Failed != res.Failed {
		t.Errorf("printed result %+v differs from returned %+v", last, *res)
	}
	return &last
}

// TestShortRunsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks that each prints every metric BENCHMARK.json names,
// with its unit, and that every correctness check passes.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			if testing.Short() && trace {
				continue
			}
			res := runShort(t, short(t, w.Name, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestInjectedWrongAnswerIsAFailure corrupts one HTTP answer and one
// recovered answer by a single bit and checks that both are counted as
// failures and make the run incorrect.
func TestInjectedWrongAnswerIsAFailure(t *testing.T) {
	cfg := short(t, "answer-serve", false)
	cfg.injectWrongAnswer = true
	var out bytes.Buffer
	res, err := execute(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed < 2 {
		t.Fatalf("correct=%v failed=%d, want the corrupted HTTP answer and the corrupted recovery probe counted", res.Correct, res.Failed)
	}
	for _, want := range []string{"differs from in-process Engine.Answer", "differ from the daemon that wrote its snapshot"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report does not name the failure %q", want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

// TestSelfTimeCoversOverlappingChildren checks that self time subtracts
// the union of (possibly concurrent) child intervals, not their sum.
func TestSelfTimeCoversOverlappingChildren(t *testing.T) {
	tr := newTracer()
	tr.beginOp("x")
	tr.spans = []span{
		{Name: "parent", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, Parent: 0, Start: 10, End: 60},
		{Name: "b", Op: 1, Parent: 0, Start: 40, End: 90},
	}
	for _, l := range tr.layers() {
		if l.Name == "parent" && l.Self != ms(20) {
			t.Errorf("parent self = %v ms, want %v", l.Self, ms(20))
		}
	}
}
