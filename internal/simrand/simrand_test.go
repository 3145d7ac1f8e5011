package simrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestSplitDeterministicAndDecorrelated(t *testing.T) {
	a1 := New(7).Split("net")
	a2 := New(7).Split("net")
	b := New(7).Split("render")
	same, diff := 0, 0
	for i := 0; i < 100; i++ {
		x1, x2, y := a1.Float64(), a2.Float64(), b.Float64()
		if x1 == x2 {
			same++
		}
		if x1 != y {
			diff++
		}
	}
	if same != 100 {
		t.Errorf("same-label splits matched %d/100 draws", same)
	}
	if diff < 99 {
		t.Errorf("different-label splits agreed too often: %d/100 differ", diff)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(1)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := s.Normal(5, 2)
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("mean = %v, want ~5", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Errorf("std = %v, want ~2", std)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(2)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("lognormal draw %v <= 0", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(3)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(10)
	}
	if m := sum / n; math.Abs(m-10) > 0.2 {
		t.Errorf("exponential mean = %v, want ~10", m)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(4)
	check := func(a, b float64) bool {
		// Constrain to a sane magnitude so hi-lo cannot overflow; the
		// simulation only ever draws physical quantities.
		lo := math.Mod(a, 1e6)
		hi := lo + 1 + math.Abs(math.Mod(b, 1e6))
		v := s.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(5)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("bernoulli rate = %v, want ~0.3", rate)
	}
}

func TestOUMeanReversion(t *testing.T) {
	s := New(6)
	ou := NewOU(s, 1.0, 4.0, 0.5)
	ou.Reset(10)
	// After many mean-reversion time constants the process should hover
	// near its mean with stationary std sigma/sqrt(2 theta) ~ 0.177.
	var sum float64
	const n = 50000
	for i := 0; i < 2000; i++ { // burn-in
		ou.Step(0.01)
	}
	for i := 0; i < n; i++ {
		sum += ou.Step(0.01)
	}
	if m := sum / n; math.Abs(m-1.0) > 0.05 {
		t.Errorf("OU long-run mean = %v, want ~1", m)
	}
}

func TestOUStationaryVariance(t *testing.T) {
	s := New(7)
	theta, sigma := 2.0, 0.8
	ou := NewOU(s, 0, theta, sigma)
	var sum2 float64
	const n = 100000
	for i := 0; i < 1000; i++ {
		ou.Step(0.02)
	}
	for i := 0; i < n; i++ {
		x := ou.Step(0.02)
		sum2 += x * x
	}
	want := sigma * sigma / (2 * theta)
	got := sum2 / n
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("stationary variance = %v, want ~%v", got, want)
	}
}

func TestOUZeroDtNoChange(t *testing.T) {
	ou := NewOU(New(8), 0, 1, 1)
	ou.Reset(3.5)
	if got := ou.Step(0); got != 3.5 {
		t.Errorf("Step(0) = %v, want 3.5", got)
	}
	if ou.Value() != 3.5 {
		t.Errorf("Value() = %v, want 3.5", ou.Value())
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(9)
	p := s.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestChildSeedPureAndDistinct(t *testing.T) {
	// Pure: the same (seed, label) always yields the same child seed, no
	// matter how many other children were derived first.
	a := ChildSeed(1, "fig5/rep0")
	for i := 0; i < 100; i++ {
		ChildSeed(1, "noise")
	}
	if ChildSeed(1, "fig5/rep0") != a {
		t.Error("ChildSeed not pure")
	}
	// Distinct labels and distinct parents decorrelate.
	seen := map[int64]string{}
	for _, seed := range []int64{0, 1, 2, 42} {
		for _, label := range []string{"a", "b", "rep0", "rep1", "rep10"} {
			c := ChildSeed(seed, label)
			key := string(rune(seed)) + "/" + label
			if prev, ok := seen[c]; ok {
				t.Errorf("collision: %s and %s both map to %d", prev, key, c)
			}
			seen[c] = key
		}
	}
}

func TestChildStreamsIndependent(t *testing.T) {
	// Streams from sibling children should not be correlated.
	a, b := Child(7, "rep0"), Child(7, "rep1")
	var cov, va, vb float64
	const n = 4096
	for i := 0; i < n; i++ {
		x, y := a.Float64()-0.5, b.Float64()-0.5
		cov += x * y
		va += x * x
		vb += y * y
	}
	if r := cov / math.Sqrt(va*vb); math.Abs(r) > 0.08 {
		t.Errorf("sibling child streams correlate: r = %.3f", r)
	}
	// Same label replays identically.
	c, d := Child(7, "rep0"), Child(7, "rep0")
	for i := 0; i < 16; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("same-label child streams diverge")
		}
	}
}

// TestZigguratMatchesStdlib pins the ported normal sampler to math/rand:
// both must consume the source stream identically and return bit-identical
// draws, or every seeded experiment result downstream would move.
func TestZigguratMatchesStdlib(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a := New(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 200000; i++ {
			got := a.normFloat64()
			want := ref.NormFloat64()
			if got != want {
				t.Fatalf("seed %d draw %d: %v != %v", seed, i, got, want)
			}
		}
	}
}

// streamSeeds covers Seed's special cases (0, negatives, multiples of
// 2^31-1, which all reduce to the same internal seed) plus a run of
// ordinary seeds.
func streamSeeds() []int64 {
	const m = 1<<31 - 1
	seeds := []int64{0, -1, -2, -42, m, -m, 2 * m, 3*m + 1, m - 1, m + 1,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for s := int64(1); len(seeds) < 240; s++ {
		seeds = append(seeds, s*7919-s*s)
	}
	return seeds
}

// TestSourceMatchesStdlib pins the in-package source (rng.go) to
// math/rand: every Source method must draw the identical stream that
// rand.New(rand.NewSource(seed)) does, and Split must derive the same
// children, or every seeded experiment result downstream would move.
func TestSourceMatchesStdlib(t *testing.T) {
	for _, seed := range streamSeeds() {
		a := New(seed)
		ref := rand.New(rand.NewSource(seed))
		fail := func(what string, i int, got, want any) {
			t.Helper()
			t.Fatalf("seed %d %s draw %d: %v != %v", seed, what, i, got, want)
		}
		for i := 0; i < 50; i++ {
			if got, want := a.Int63(), ref.Int63(); got != want {
				fail("Int63", i, got, want)
			}
			if got, want := a.Float64(), ref.Float64(); got != want {
				fail("Float64", i, got, want)
			}
			if got, want := a.Intn(1000+i), ref.Intn(1000+i); got != want {
				fail("Intn", i, got, want)
			}
			if got, want := a.Exponential(1), ref.ExpFloat64(); got != want {
				fail("ExpFloat64", i, got, want)
			}
			if got, want := a.Normal(0, 1), ref.NormFloat64(); got != want {
				fail("NormFloat64", i, got, want)
			}
		}
		if got, want := a.Perm(37), ref.Perm(37); !slices.Equal(got, want) {
			fail("Perm", 0, got, want)
		}
		x, y := make([]int, 29), make([]int, 29)
		for i := range x {
			x[i], y[i] = i, i
		}
		a.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
		ref.Shuffle(len(y), func(i, j int) { y[i], y[j] = y[j], y[i] })
		if !slices.Equal(x, y) {
			fail("Shuffle", 0, x, y)
		}
		// Split consumes one Int63 of the parent and seeds the child from
		// it; rebuild the child from the reference stream the same way.
		child := a.Split("noise")
		h := uint64(1469598103934665603)
		for _, c := range []byte("noise") {
			h ^= uint64(c)
			h *= 1099511628211
		}
		h ^= uint64(ref.Int63())
		refChild := rand.New(rand.NewSource(int64(splitmix64(h))))
		for i := 0; i < 20; i++ {
			if got, want := child.Normal(0, 1), refChild.NormFloat64(); got != want {
				fail("Split child", i, got, want)
			}
		}
	}
}

// TestNormalFillMatchesNormal pins NormalFill to successive Normal calls,
// with other draws interleaved between fills so a missed write-back of the
// batch's hoisted tap/feed cursors would shift every later draw.
func TestNormalFillMatchesNormal(t *testing.T) {
	lengths := []int{0, 1, 127, 607, 608, 5000}
	for _, seed := range []int64{0, 1, 2, 42, -7} {
		a, b := New(seed), New(seed)
		for round := 0; round < 4; round++ {
			for _, n := range lengths {
				dst := make([]float64, n)
				a.NormalFill(dst, 3, 1.5)
				for i, got := range dst {
					if want := b.Normal(3, 1.5); got != want {
						t.Fatalf("seed %d len %d draw %d: %v != %v", seed, n, i, got, want)
					}
				}
				if got, want := a.Normal(-1, 2), b.Normal(-1, 2); got != want {
					t.Fatalf("seed %d len %d: Normal after fill %v != %v", seed, n, got, want)
				}
				if got, want := a.Float64(), b.Float64(); got != want {
					t.Fatalf("seed %d len %d: Float64 after fill %v != %v", seed, n, got, want)
				}
				if got, want := a.Intn(97), b.Intn(97); got != want {
					t.Fatalf("seed %d len %d: Intn after fill %v != %v", seed, n, got, want)
				}
			}
		}
	}
}

var normSink float64

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += s.Normal(0, 1.2)
	}
	normSink = sum
}

func BenchmarkNormalFill(b *testing.B) {
	s := New(1)
	dst := make([]float64, 1280) // one 720p row of camera noise
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NormalFill(dst, 0, 1.2)
	}
	normSink = dst[len(dst)-1]
}
