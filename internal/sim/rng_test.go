package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/100 draws", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced degenerate stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntnCoversAllValues(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.Intn(5)] = true
	}
	for v := 0; v < 5; v++ {
		if !seen[v] {
			t.Errorf("Intn(5) never produced %d in 1000 draws", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(5)
	const rate = 2.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp(%v) mean = %v, want %v", rate, mean, 1/rate)
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	r := NewRNG(6)
	sum := 0.0
	const n, scale = 200000, 3.0
	for i := 0; i < n; i++ {
		sum += r.Weibull(1, scale)
	}
	// Weibull(1, λ) has mean λ.
	if mean := sum / n; math.Abs(mean-scale) > 0.05 {
		t.Errorf("Weibull(1,%v) mean = %v, want %v", scale, mean, scale)
	}
}

func TestWeibullMean(t *testing.T) {
	// Weibull(k=2, λ) has mean λ·Γ(1.5) = λ·√π/2.
	r := NewRNG(8)
	const n, scale = 200000, 2.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Weibull(2, scale)
	}
	want := scale * math.Sqrt(math.Pi) / 2
	if mean := sum / n; math.Abs(mean-want) > 0.02 {
		t.Errorf("Weibull(2,%v) mean = %v, want %v", scale, mean, want)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(10)
	const n, mu, sigma = 200000, 5.0, 2.0
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(mu, sigma)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-mu) > 0.03 {
		t.Errorf("Norm mean = %v, want %v", mean, mu)
	}
	if math.Abs(math.Sqrt(variance)-sigma) > 0.03 {
		t.Errorf("Norm stddev = %v, want %v", math.Sqrt(variance), sigma)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(11)
	for _, mean := range []float64{0.5, 4, 40, 800} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean)/mean > 0.03 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if NewRNG(1).Poisson(0) != 0 {
		t.Error("Poisson(0) != 0")
	}
}

func TestStreamsIndependentAndStable(t *testing.T) {
	st := NewStreams(99)
	a1 := st.Stream("alpha")
	b := st.Stream("beta")
	a2 := st.Stream("alpha")
	if a1 != a2 {
		t.Error("same name returned different stream instances")
	}
	if a1 == b {
		t.Error("different names returned the same stream")
	}
	// Two factories with the same master seed produce identical streams.
	st2 := NewStreams(99)
	x, y := st.Stream("gamma"), st2.Stream("gamma")
	for i := 0; i < 100; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatal("stream not reproducible across factories")
		}
	}
	// Different master seeds produce different streams.
	st3 := NewStreams(100)
	z := st3.Stream("gamma")
	if st2.Stream("delta").Uint64() == z.Uint64() && z.Uint64() == y.Uint64() {
		t.Error("streams suspiciously equal across seeds")
	}
}
