package xrand

import (
	"math"
	"testing"
)

// refGammaShape is the reference Gamma(alpha, 1) sampler: the boost with a
// plain math.Pow and Marsaglia–Tsang constants recomputed on every call.
// Gamma, Beta and GammaShape.Draw must reproduce its stream bit for bit.
func refGammaShape(g *RNG, alpha float64) float64 {
	if alpha < 1 {
		u := g.Float64()
		for u == 0 {
			u = g.Float64()
		}
		return refGammaShape(g, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1.0 / math.Sqrt(9.0*d)
	for {
		var x, v float64
		for {
			x = g.rand().NormFloat64()
			v = 1.0 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := g.Float64()
		if u < 1.0-0.0331*(x*x)*(x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1.0-v+math.Log(v)) {
			return d * v
		}
	}
}

// streamAlphas covers integer boost exponents (0.1, 0.25, 1/3, 0.5), a
// non-integer one that takes the math.Pow fallback (0.3), and shapes with
// no boost (1, 1.1, 2.5, 17).
var streamAlphas = []float64{0.1, 0.25, 1.0 / 3.0, 0.3, 0.5, 1, 1.1, 2.5, 17}

// TestGammaStreamMatchesReference interleaves Gamma, GammaShape.Draw and
// Beta draws over every shape in one stream per seed (over 10^6 draws in
// all) and requires each value to equal the reference sampler's exactly,
// so the fast paths neither change a value nor consume randomness
// differently.
func TestGammaStreamMatchesReference(t *testing.T) {
	shapes := make([]GammaShape, len(streamAlphas))
	for i, a := range streamAlphas {
		shapes[i] = NewGammaShape(a)
	}
	const draws = 270000
	for _, seed := range []uint64{1, 7, 42, 0xdeadbeef} {
		g, ref := New(seed), New(seed)
		for i := 0; i < draws; i++ {
			k := i % len(streamAlphas)
			a := streamAlphas[k]
			var got, want float64
			switch (i / len(streamAlphas)) % 3 {
			case 0:
				got, want = g.Gamma(a, 1.5), refGammaShape(ref, a)/1.5
			case 1:
				got, want = shapes[k].Draw(g), refGammaShape(ref, a)
			case 2:
				b := streamAlphas[(k+4)%len(streamAlphas)]
				got = g.Beta(a, b)
				x := refGammaShape(ref, a)
				y := refGammaShape(ref, b)
				want = x / (x + y)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d alpha %v: got %v, reference %v", seed, i, a, got, want)
			}
		}
		if g.Uint64() != ref.Uint64() {
			t.Fatalf("seed %d: streams diverged after %d draws", seed, draws)
		}
	}
}

// TestPowIntMatchesMathPow checks the square-and-multiply boost power
// against math.Pow at the extremes of Float64's range — every power of two
// it can return and the float just below each — plus a run of uniform
// draws, for every integer exponent the fast path takes.
func TestPowIntMatchesMathPow(t *testing.T) {
	check := func(u float64) {
		t.Helper()
		for n := 1; n <= maxPowInt; n++ {
			if got, want := powInt(u, n), math.Pow(u, float64(n)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("powInt(%v, %d) = %v, math.Pow = %v", u, n, got, want)
			}
		}
	}
	for k := 1; k <= 53; k++ {
		u := math.Ldexp(1, -k)
		check(u)
		check(math.Nextafter(u, 0))
	}
	g := New(3)
	for i := 0; i < 100000; i++ {
		check(g.Float64())
	}
}

// TestGammaShapeExponent pins which shapes take the integer boost.
func TestGammaShapeExponent(t *testing.T) {
	for _, c := range []struct {
		alpha float64
		n     int
	}{
		{0.1, 10}, {0.25, 4}, {1.0 / 3.0, 3}, {0.5, 2}, {1.0 / 16, 16},
		{0.3, 0}, {1.0 / 17, 0}, {1, 0}, {2.5, 0},
	} {
		if got := NewGammaShape(c.alpha).n; got != c.n {
			t.Errorf("NewGammaShape(%v) integer exponent = %d, want %d", c.alpha, got, c.n)
		}
	}
}

// BenchmarkGammaDraw times one Thompson belief draw: a prior arm at the
// paper's α0 = 0.1 through a precomputed GammaShape (the sampler's path),
// the same shape through RNG.Gamma, and a warm arm (α = N1 + α0 = 3.1)
// that needs no boost.
func BenchmarkGammaDraw(b *testing.B) {
	var sink float64
	b.Run("prior", func(b *testing.B) {
		g := New(1)
		s := NewGammaShape(0.1)
		for i := 0; i < b.N; i++ {
			sink += s.Draw(g) / 5
		}
	})
	b.Run("prior-gamma", func(b *testing.B) {
		g := New(1)
		for i := 0; i < b.N; i++ {
			sink += g.Gamma(0.1, 5)
		}
	})
	b.Run("warm", func(b *testing.B) {
		g := New(1)
		for i := 0; i < b.N; i++ {
			sink += g.Gamma(3.1, 5)
		}
	})
	_ = sink
}
