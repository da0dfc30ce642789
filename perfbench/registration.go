package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	hdmm "repro"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// coldRelease: one client registers the fixed mix on an empty strategy
// registry, round after round. Every round boots a daemon over a fresh
// cache directory and a fresh snapshot directory; after the round the
// daemon is dropped and a new one recovers the round's engines.
func (b *bench) coldRelease() error {
	mixT := []tenant{sf1, cpsRange, adult3, union64}
	var regs []*registered
	// Set-up is cheap here (data generation and a daemon boot), so it is
	// repeated more often for a steady median.
	err := b.timeSetup(7, func() error {
		regs = regs[:0]
		for i, t := range mixT {
			r, err := prepare(t, mix(b.cfg.seed, 'c', uint64(i), 'd'), mix(b.cfg.seed, 'c', uint64(i), 'e'), mix(b.cfg.seed, 'c', uint64(i), 'n'))
			if err != nil {
				return err
			}
			regs = append(regs, r)
		}
		d, err := b.boot(b.newDir("cache"), b.newDir("snap"))
		if err != nil {
			return err
		}
		d.close()
		return nil
	})
	if err != nil {
		return err
	}
	var rounds, allLat, recov []float64
	lat := map[string][]float64{}
	for round := 0; round == 0 || sum(rounds) < b.cfg.seconds; round++ {
		cache, snaps := b.newDir("cache"), b.newDir("snap")
		d, err := b.boot(cache, snaps)
		if err != nil {
			return err
		}
		var reg *registry.Registry
		var store *snapshot.Store
		replayDir := b.newDir("replay")
		if b.tr != nil {
			// The replay gets its own empty registry, so it selects cold too.
			if reg, err = registry.Open(filepath.Join(replayDir, "cache"), 0); err != nil {
				return err
			}
			if store, err = snapshot.Open(filepath.Join(replayDir, "snap"), nil); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for _, r := range regs {
			r.resp.Key = ""
			if b.tr != nil {
				b.traceRegister(d, r, kindOf(r.t), reg, store)
			} else {
				b.register(d, r)
			}
			lat[r.t.name] = append(lat[r.t.name], r.latency.Seconds())
			allLat = append(allLat, ms(r.latency))
		}
		rounds = append(rounds, time.Since(t0).Seconds())
		boot, err := b.afterRound(d, regs, round == 0, 3)
		if err != nil {
			return err
		}
		recov = append(recov, boot.Seconds())
		for _, dir := range []string{cache, replayDir} {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	b.setRounds(len(rounds))
	for _, name := range sortedKeys(lat) {
		b.sample("register_s_"+name, lat[name])
	}
	var q []float64
	for _, r := range regs {
		q = append(q, r.rmseAtEps1())
	}
	if b.tr == nil {
		b.set("round_s", b.sample("cold_round_s", rounds), "s")
		b.set("p50_ms", b.sample("cold_register_p50_ms", allLat), "ms")
		b.set("recover_s", b.sample("recover_s", recov), "s")
		b.set("expected_rmse_geomean", geomean(q), "counts")
	}
	return nil
}

// warmChurn: one client registers SF1-shaped tenants (each with its own
// seeded data and budget) plus one CPH union tenant per epoch, all with
// strategies the registry already holds. After each epoch the daemon is
// dropped and a fresh one recovers the epoch's engines from their
// snapshots.
func (b *bench) warmChurn() error {
	var cache string
	err := b.timeSetup(3, func() error {
		cache = b.newDir("cache")
		d, err := b.boot(cache, b.newDir("snap"))
		if err != nil {
			return err
		}
		d.close()
		for _, t := range []tenant{sf1, cphUnion} {
			if err := warmStrategy(t, cache); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	reg, err := registry.Shared(cache, 0)
	if err != nil {
		return err
	}
	var epochs, sf1Lat, unionLat, recov, q []float64
	for epoch := 0; epoch == 0 || sum(epochs) < b.cfg.seconds; epoch++ {
		n := b.cfg.epochTenants + 1
		unionAt := int(mix(b.cfg.seed, 'w', uint64(epoch), 'u') % uint64(n))
		regs := make([]*registered, n)
		for i := range regs {
			t := sf1
			if i == unionAt {
				t = cphUnion
			}
			r, err := prepare(t, mix(b.cfg.seed, 'w', uint64(epoch), uint64(i), 'd'), mix(b.cfg.seed, 'w', uint64(epoch), uint64(i), 'e'), mix(b.cfg.seed, 'w', uint64(epoch), uint64(i), 'n'))
			if err != nil {
				return err
			}
			if epoch > 0 {
				r.x = nil // only the first epoch is checked against the truth
			}
			regs[i] = r
		}
		snaps, replaySnaps := b.newDir("snap"), b.newDir("replay-snap")
		d, err := b.boot(cache, snaps)
		if err != nil {
			return err
		}
		var store *snapshot.Store
		if b.tr != nil {
			if store, err = snapshot.Open(replaySnaps, nil); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		for _, r := range regs {
			if b.tr != nil {
				b.traceRegister(d, r, kindOf(r.t), reg, store)
			} else if b.register(d, r) {
				b.check(r.resp.FromCache, "warm %s: strategy was not in the registry", r.t.name)
			}
			if r.t.name == sf1.name {
				sf1Lat = append(sf1Lat, ms(r.latency))
			} else {
				unionLat = append(unionLat, r.latency.Seconds())
			}
			if epoch == 0 {
				q = append(q, r.rmseAtEps1())
			}
		}
		epochs = append(epochs, time.Since(t0).Seconds())
		boot, err := b.afterRound(d, regs, epoch == 0, 5)
		if err != nil {
			return err
		}
		recov = append(recov, boot.Seconds())
		if err := os.RemoveAll(replaySnaps); err != nil {
			return err
		}
	}
	b.setRounds(len(epochs))
	b.sample("union_register_s", unionLat)
	if b.tr == nil {
		b.set("round_s", b.sample("warm_epoch_s", epochs), "s")
		b.set("p50_ms", b.sample("warm_register_p50_ms", sf1Lat), "ms")
		b.set("recover_s", b.sample("recover_s", recov), "s")
		b.set("expected_rmse_geomean", geomean(q), "counts")
	}
	return nil
}

// afterRound probes every registered engine over HTTP, drops the daemon,
// and boots boots fresh ones in turn over its snapshots (the recovery
// samples, of which it returns the median), checking the recovered
// engines. With check it also compares every tenant's private answers
// with the truth. The snapshot directory is removed.
func (b *bench) afterRound(d *daemon, regs []*registered, check bool, boots int) (time.Duration, error) {
	probes := b.probe(d, regs)
	d.close()
	var xs []float64
	for i := 0; i < boots; i++ {
		runtime.GC()
		boot, err := b.recoverOnce(d.cache, d.snaps, regs, probes)
		if err != nil {
			return 0, err
		}
		xs = append(xs, boot.Seconds())
	}
	boot := time.Duration(median(xs) * float64(time.Second))
	if b.tr != nil {
		if err := b.replayRecover(d.snaps); err != nil {
			b.check(false, "replaying recovery: %v", err)
		}
	}
	if check {
		if err := b.checkRMSE(d.snaps, regs); err != nil {
			return 0, err
		}
	}
	return boot, os.RemoveAll(d.snaps)
}

// warmStrategy selects t's strategy into the registry at cache, the way
// `hdmm optimize` does, and builds the state the strategy caches on first
// use (the Kronecker pseudo-inverse, the union preconditioner), so the
// measured epochs start warm.
func warmStrategy(t tenant, cache string) error {
	products, err := workload.ParseProducts(t.queries, t.domain)
	if err != nil {
		return err
	}
	w, err := workload.New(schema.Sizes(t.domain...), products...)
	if err != nil {
		return err
	}
	_, sel, _, err := hdmm.Optimize(w, hdmm.SelectOptions{Restarts: restarts, Seed: t.optSeed, Workers: workers, CacheDir: cache})
	if err != nil {
		return err
	}
	rows, _ := sel.Strategy.Operator().Dims()
	switch s := sel.Strategy.(type) {
	case *core.KronStrategy:
		_, err = s.PinvOperator()
	case *core.UnionStrategy:
		_, err = s.ReconstructOpt(make([]float64, rows), core.ReconstructOptions{})
	}
	if err != nil {
		return fmt.Errorf("warming %s: %w", t.name, err)
	}
	return nil
}

// kindOf classifies a registration for the per-layer metrics.
func kindOf(t tenant) string {
	switch t.name {
	case sf1.name:
		return "sf1"
	case cphUnion.name, union64.name:
		return "union"
	}
	return "other"
}

// setRounds records how many rounds (or epochs) the run completed.
func (b *bench) setRounds(n int) {
	b.rounds = n
	b.details["rounds"] = n
}
