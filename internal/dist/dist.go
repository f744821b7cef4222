// Package dist provides seeded random-number generation and the probability
// distributions used by the workload generators.
//
// The paper's central empirical observation (§3, Figure 1) is that frame
// rendering time follows a power-law-like distribution: the vast majority of
// frames are short while a small heavy tail of key frames misses VSync
// deadlines. The generators here compose a lognormal body with a Pareto tail
// to reproduce that shape, with per-scenario calibration knobs.
//
// A stream is defined by its seed alone. Nothing captures or fast-forwards
// a stream's position: an interrupted simulation is recovered by running
// it again from the start, so every stream redraws its values in order.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG wraps math/rand with an explicit seed so every simulation is
// reproducible and independent streams can be split deterministically.
//
// A stream is cheap until it draws: New and Reseed only record the seed,
// and the first draw builds (New) or reseeds (Reseed) the 607-word
// math/rand source. A stream that never draws — a panel with no jitter, a
// rewound fault stream in a run without faults — never seeds one. A
// caller that generates many traces keeps one RNG and rewinds it with
// Reseed, so only the first of them allocates a source.
type RNG struct {
	r    *rand.Rand
	src  *countingSource
	seed int64
}

// countingSource counts base draws, so a test can tell a stream that
// never drew (and so never seeded a source) from one that did. It
// deliberately implements only rand.Source — never Source64 — so rand.Rand
// routes every variate (Float64, Intn, NormFloat64, Perm) through Int63
// exactly as it does for the plain rand.NewSource it wraps, keeping output
// byte-identical to the uncounted stream.
//
// Seeding is deferred: seeding the wrapped source recomputes its whole
// 607-word state, far more work than a draw, and many streams never draw.
// The recorded seed is applied by the first Int63, which every draw
// reaches; that draw also builds the source if the stream has none yet.
type countingSource struct {
	src     rand.Source // nil until the first draw
	n       uint64
	seed    int64
	pending bool // seed recorded but not yet applied to src
}

func (c *countingSource) Int63() int64 {
	if c.pending {
		if c.src == nil {
			c.src = rand.NewSource(c.seed)
		} else {
			c.src.Seed(c.seed)
		}
		c.pending = false
	}
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Seed(seed int64) {
	c.seed = seed
	c.n = 0
	c.pending = true
}

// New returns a deterministic RNG for the given seed. It seeds nothing
// until the first draw.
func New(seed int64) *RNG {
	src := &countingSource{seed: seed, pending: true}
	return &RNG{r: rand.New(src), src: src, seed: seed}
}

// Seed returns the seed the stream was created from.
func (g *RNG) Seed() int64 { return g.seed }

// Reseed rewinds the stream to the start of the given seed's sequence
// without allocating — byte-identical to New(seed). It records the seed and
// zeroes Draws; the first draw (Float64, Intn, NormFloat64, Perm or the
// parent draw of Split) seeds the source, so a stream that is rewound
// and never drawn from costs nothing. It is the reuse path's replacement
// for building a fresh RNG per run. Bypassing rand.Rand.Seed is sound
// because the only state rand.Rand keeps beside its source is Read's
// buffer, which no method here uses.
func (g *RNG) Reseed(seed int64) {
	g.seed = seed
	g.src.Seed(seed)
}

// Draws returns how many base-source values the stream has consumed.
func (g *RNG) Draws() uint64 { return g.src.n }

// Split derives an independent child stream. The label decorrelates children
// created from the same parent.
func (g *RNG) Split(label string) *RNG {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	return New(h ^ g.r.Int63())
}

// SplitSeed returns New(seed).Split(label).Seed(), the seed of a fresh
// stream's child, without seeding the parent: Split draws one Int63 from
// a 607-word source built only for that draw, and that first draw has a
// closed form.
//
// math/rand seeds its source from the Park–Miller sequence
// x_k = 48271^k · x_0 mod (2^31−1), where x_0 is the seed reduced into
// [1, 2^31−2], and sets word i to
// x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ rngCooked[i]. Its first draw
// adds words 333 and 606 and masks off the sign bit. So the draw needs six
// powers of 48271 and those two words of math/rand's rngCooked table
// (BSD licence, The Go Authors); FuzzSplitSeed and the tests beside it
// hold it to the real source.
func SplitSeed(seed int64, label string) int64 {
	h := int64(1469598103934665603) // FNV-1a offset basis, as in Split
	for _, c := range label {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h ^ firstInt63(seed)
}

// firstInt63 is the first Int63 of rand.NewSource(seed).
func firstInt63(seed int64) int64 {
	const (
		mod       = 1<<31 - 1
		cooked333 = -4633371852008891965
		cooked606 = 4152330101494654406
	)
	// 48271^k mod (2^31−1) for k = 1020, 1021, 1022 (word 333) and
	// 1839, 1840, 1841 (word 606).
	pow := [6]uint64{2082024995, 1341337692, 1079773482, 933195560, 665897288, 2140244399}
	s := seed % mod
	if s < 0 {
		s += mod
	}
	if s == 0 {
		s = 89482311 // math/rand's stand-in for a zero seed
	}
	x := uint64(s)
	w333 := int64(pow[0]*x%mod<<40^pow[1]*x%mod<<20^pow[2]*x%mod) ^ cooked333
	w606 := int64(pow[3]*x%mod<<40^pow[4]*x%mod<<20^pow[5]*x%mod) ^ cooked606
	return (w333 + w606) & (1<<63 - 1)
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Lognormal draws from exp(N(Mu, Sigma²)). Mu and Sigma are parameters of
// the underlying normal (i.e. of log X).
type Lognormal struct{ Mu, Sigma float64 }

// Sample draws one value.
func (l Lognormal) Sample(g *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*g.NormFloat64())
}

// LognormalFromMoments builds a Lognormal whose mean and standard deviation
// match the given values.
func LognormalFromMoments(mean, stddev float64) Lognormal {
	if mean <= 0 {
		panic(fmt.Sprintf("dist: non-positive lognormal mean %v", mean))
	}
	v := stddev * stddev
	sigma2 := math.Log(1 + v/(mean*mean))
	return Lognormal{
		Mu:    math.Log(mean) - sigma2/2,
		Sigma: math.Sqrt(sigma2),
	}
}

// Pareto draws from a Pareto distribution with scale Xm and shape Alpha.
// Smaller Alpha ⇒ heavier tail. Alpha ≤ 1 has infinite mean; workload
// profiles use Alpha in (1.1, 4) to express how pathological an app's key
// frames are.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample draws one value.
func (p Pareto) Sample(g *RNG) float64 {
	u := g.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}
