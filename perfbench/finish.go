package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/fsx"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	value      func(b *bench) float64
}

// med is the median of xs, or 0 when the workload never exercised the
// layer (the per-layer line always carries every metric).
func med(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// perRound is the time a layer took per round (cold-release rounds),
// in seconds.
func (b *bench) perRound(name string) float64 {
	total := 0.0
	for _, x := range b.tr.perOp("", name) {
		total += x
	}
	return total / 1000 / float64(max(b.rounds, 1))
}

// layerMetrics lists every per-layer metric, with the workload and
// end-to-end metric it should move in the comment beside it.
var layerMetrics = []layerMetric{
	// cold-release round_s: strategy selection, per round of the mix.
	{"core.select_s", "s", func(b *bench) float64 { return b.perRound("core.select") }},
	{"core.opt_kron_s", "s", func(b *bench) float64 { return b.perRound("core.opt_kron") }},
	{"core.opt_plus_s", "s", func(b *bench) float64 { return b.perRound("core.opt_plus") }},
	{"core.opt_marg_s", "s", func(b *bench) float64 { return b.perRound("core.opt_marg") }},
	{"core.restarts", "count", func(b *bench) float64 { return float64(b.restarts) / float64(max(b.rounds, 1)) }},
	{"optimize.objgrad_ms", "ms", func(b *bench) float64 { return med(b.tr.each("optimize.objgrad")) }},
	// warm-churn p50_ms: one SF1-shaped registration, layer by layer.
	{"registry.lookup_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("", "registry.lookup")) }},
	{"registry.hit_ratio", "ratio", func(b *bench) float64 { return float64(b.hits) / float64(max(b.lks, 1)) }},
	{"server.register_decode_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("sf1", "server.register_decode")) }},
	{"mech.measure_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("sf1", "mech.measure")) }},
	{"kron.strategy_matvec_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("sf1", "kron.strategy_matvec")) }},
	{"core.reconstruct_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("sf1", "core.reconstruct")) }},
	{"snapshot.encode_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("sf1", "snapshot.encode")) }},
	{"snapshot.save_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("sf1", "snapshot.save")) }},
	{"snapshot.bytes", "bytes", func(b *bench) float64 { return med(b.tr.noted("sf1", "snapshot.bytes")) }},
	// warm-churn round_s: the union tenant's LSMR solve.
	{"lsmr.solve_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("union", "lsmr.solve")) }},
	{"lsmr.iters", "count", func(b *bench) float64 { return med(b.tr.noted("union", "lsmr.iters")) }},
	{"lsmr.iter_ms", "ms", func(b *bench) float64 { return med(b.tr.noted("union", "lsmr.iter_ms")) }},
	// recover_s: one recovery boot, summed over its snapshots.
	{"snapshot.load_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("recover", "snapshot.load")) }},
	{"serve.restore_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("recover", "serve.restore")) }},
	// answer-serve p50_ms: a wide request.
	{"workload.parse_products_us", "us", func(b *bench) float64 { return 1000 * med(b.tr.perOp("wide", "workload.parse_products")) }},
	{"server.admit_us", "us", func(b *bench) float64 { return med(b.tr.noted("wide", "server.admit_us")) }},
	{"server.answer_encode_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("wide", "server.answer_encode")) }},
	{"server.response_bytes", "bytes", func(b *bench) float64 { return med(b.tr.noted("wide", "server.response_bytes")) }},
	{"server.http_residual_ms", "ms", func(b *bench) float64 { return med(b.tr.noted("wide", "server.http_residual_ms")) }},
	// answer-serve round_s: a deep request.
	{"serve.answer_ms", "ms", func(b *bench) float64 { return med(b.tr.perOp("deep", "serve.answer")) }},
	{"serve.answer_values", "count", func(b *bench) float64 { return med(b.tr.noted("deep", "serve.answer_values")) }},
	// Every workload: the privacy ledger and the trace itself.
	{"mech.measurements", "count", func(b *bench) float64 { return float64(b.measured) }},
	{"trace.overhead_ms", "ms", func(b *bench) float64 { return med(b.tr.noted("", "trace.overhead_ms")) }},
	{"trace.reconcile_ratio", "ratio", func(b *bench) float64 { return med(b.tr.noted("", "trace.reconcile_ratio")) }},
}

// finishTrace turns the spans into the per-layer metrics, prints the
// self-time table and writes the spans out.
func (b *bench) finishTrace() error {
	for _, m := range layerMetrics {
		b.set(m.name, m.value(b), m.unit)
	}
	for _, l := range b.tr.layers() {
		b.printJSON("layer", l)
	}
	blob, err := b.tr.dump()
	if err != nil {
		return err
	}
	path := filepath.Join(b.cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	if err := fsx.WriteAtomic(fsx.OS{}, path, blob); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "spans: %s (%d spans)\n", path, len(b.tr.spans))
	return nil
}
