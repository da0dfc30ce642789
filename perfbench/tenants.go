package main

import (
	"math"
	"math/rand/v2"
	"strings"

	"repro/internal/dataset"
	"repro/internal/schema"
	"repro/internal/server"
)

// tenant is one registration shape: a workload over a domain. Its data,
// budget and noise seed are drawn from the run's seed when a request is
// made; its strategy-selection seed (optSeed) and restarts are fixed,
// because strategy quality depends on them and expected_rmse must not
// move with the workload seed.
type tenant struct {
	name    string
	domain  []int
	queries []string
	optSeed uint64
	data    func(seed uint64) []float64
}

const (
	restarts = 2
	workers  = 2 // server Workers and GOMAXPROCS: the benchmark box has 2 cores
)

// sf1 is a 32-product workload over the full CPH schema (hispanic 2 × sex
// 2 × race 64 × relationship 17 × age 115 = 500,480 cells), written in the
// daemon's spec grammar: totals and identities on the categorical
// attributes, identities, prefixes, width-5 and all ranges on age. OPT⊗
// wins its selection, and its warm registration is dominated by the
// Kronecker measurement and pseudo-inverse over half a million cells.
var sf1 = tenant{
	name:   "sf1",
	domain: []int{2, 2, 64, 17, 115},
	queries: []string{
		"T,T,T,T,T", "I,T,T,T,T", "T,I,T,T,T", "T,T,I,T,T", "I,T,I,T,T", "T,I,T,T,W5",
		"T,T,T,I,T", "T,I,T,I,T", "I,T,I,I,T", "I,I,T,T,T", "T,I,I,T,W5", "I,I,I,T,T",
		"T,T,I,I,T", "T,I,T,T,I", "T,T,T,T,I", "I,T,T,T,W5", "T,I,I,T,P", "I,I,T,T,P",
		"T,T,I,T,P", "I,I,I,T,P", "T,T,T,I,P", "T,I,T,I,P", "I,I,I,I,T", "T,I,T,I,W5",
		"I,T,I,T,W5", "I,I,T,T,W5", "T,T,T,I,W5", "I,T,T,I,T", "T,I,T,I,I", "I,I,T,T,I",
		"T,T,T,T,R", "I,T,T,T,P",
	},
	optSeed: 1,
	data:    func(seed uint64) []float64 { return cphData(seed, 64) },
}

// cpsRange is every 2-way marginal over the CPS schema (income 100 × age
// 50 × marital 7 × race 4 × sex 2) with ranges on the two ordinal
// attributes. OPT⊗ wins.
var cpsRange = tenant{
	name:    "cps-range2",
	domain:  []int{100, 50, 7, 4, 2},
	queries: marginals([]string{"R", "R", "I", "I", "I"}, 2, 2),
	optSeed: 1,
	data: func(seed uint64) []float64 {
		c := dataset.CPSLike(50000, seed)
		return c.Domain.DataVector(c.Records)
	},
}

// adult3 is every marginal of up to 3 attributes over the Adult schema
// (age 75 × education 16 × race 5 × sex 2 × hours 20). OPT_M wins.
var adult3 = tenant{
	name:    "adult-marg3",
	domain:  []int{75, 16, 5, 2, 20},
	queries: marginals([]string{"I", "I", "I", "I", "I"}, 0, 3),
	optSeed: 1,
	data: func(seed uint64) []float64 {
		a := dataset.AdultLike(50000, seed)
		return a.Domain.DataVector(a.Records)
	},
}

// union64 is a 3-product union over a 64³ cube whose range structure no
// single Kronecker product serves well: OPT+ wins with two groups, and its
// reconstruction is the preconditioned LSMR path.
var union64 = tenant{
	name:    "union-64x3",
	domain:  []int{64, 64, 64},
	queries: []string{"R,T,T", "T,R,R", "P,P,T"},
	optSeed: 1,
	data:    cubeData,
}

// cphUnion is an 8-product union over the CPH schema with race cut to 8
// codes. OPT+ wins with two groups; the first group carries totals on age,
// which makes the exact two-block preconditioner unavailable, so its LSMR
// solve takes well over 100 iterations. It is the slowest realistic
// registration path and must not be shrunk while that stays so.
var cphUnion = tenant{
	name:   "cph-union8",
	domain: []int{2, 2, 8, 17, 115},
	queries: []string{
		"I,I,I,I,T", "I,T,I,T,T", "T,I,T,I,T", "I,I,T,T,T",
		"T,T,T,T,R", "T,T,T,T,P", "I,T,T,T,R", "T,I,T,T,P",
	},
	optSeed: 1,
	data:    func(seed uint64) []float64 { return cphData(seed, 8) },
}

// wide is a small-domain tenant (sex × age) whose answer requests carry
// many tiny products, so their cost is parsing, admission and encoding
// rather than arithmetic.
var wide = tenant{
	name:    "wide-2x115",
	domain:  []int{2, 115},
	queries: []string{"I,R", "T,P", "I,W5"},
	optSeed: 1,
	data: func(seed uint64) []float64 {
		c := dataset.CPHLike(20000, false, seed)
		dom := schema.Sizes(2, 115)
		recs := make([][]int, len(c.Records))
		for i, r := range c.Records {
			recs[i] = []int{r[1], r[4]}
		}
		return dom.DataVector(recs)
	},
}

// cphData is a CPH-like histogram of 100,000 persons with the race
// attribute folded to raceCodes values.
func cphData(seed uint64, raceCodes int) []float64 {
	c := dataset.CPHLike(100000, false, seed)
	dom := schema.Sizes(2, 2, raceCodes, 17, 115)
	recs := c.Records
	if raceCodes != 64 {
		recs = make([][]int, len(c.Records))
		for i, r := range c.Records {
			recs[i] = []int{r[0], r[1], r[2] % raceCodes, r[3], r[4]}
		}
	}
	return dom.DataVector(recs)
}

// cubeData is 60,000 points in four seeded Gaussian clusters in 64³.
func cubeData(seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x64))
	x := make([]float64, 64*64*64)
	var centers [4][3]float64
	for c := range centers {
		for a := range centers[c] {
			centers[c][a] = 8 + 48*rng.Float64()
		}
	}
	for i := 0; i < 60000; i++ {
		c := centers[rng.IntN(4)]
		var idx int
		for a := 0; a < 3; a++ {
			v := int(math.Round(c[a] + 6*rng.NormFloat64()))
			v = min(max(v, 0), 63)
			idx = idx*64 + v
		}
		x[idx]++
	}
	return x
}

// marginals lists the products over len(specs) attributes in which k
// attributes, minK <= k <= maxK, carry their spec and the rest carry T.
func marginals(specs []string, minK, maxK int) []string {
	var out []string
	d := len(specs)
	for mask := 0; mask < 1<<d; mask++ {
		k := 0
		for m := mask; m != 0; m &= m - 1 {
			k++
		}
		if k < minK || k > maxK {
			continue
		}
		p := make([]string, d)
		for i := range p {
			p[i] = "T"
			if mask&(1<<i) != 0 {
				p[i] = specs[i]
			}
		}
		out = append(out, strings.Join(p, ","))
	}
	return out
}

// request builds the registration of t over x with budget eps and noise
// seed noise.
func (t tenant) request(x []float64, eps float64, noise uint64) *server.RegisterRequest {
	return &server.RegisterRequest{
		Domain:   t.domain,
		Queries:  t.queries,
		Data:     x,
		Eps:      eps,
		Seed:     noise,
		Restarts: restarts,
		OptSeed:  t.optSeed,
	}
}

// mix derives an independent 64-bit value from a seed and a path of
// labels (splitmix64 finalizer over a running hash), so every tenant,
// round and request draws its own stream from the one workload seed.
func mix(seed uint64, path ...uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, p := range path {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	if h == 0 {
		h = 1 // seed 0 means fresh entropy to the daemon; never send it
	}
	return h
}

// drawEps draws a budget log-uniformly from [0.5, 2].
func drawEps(seed uint64) float64 {
	u := float64(seed>>11) / (1 << 53)
	return 0.5 * math.Pow(4, u)
}
