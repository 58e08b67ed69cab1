package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**, seeded via splitmix64). The simulator does not use
// math/rand so that stream splitting is explicit: every subsystem draws from
// its own named stream, and adding a new fault scenario cannot perturb the
// draws seen by unrelated subsystems.
type RNG struct {
	s [4]uint64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given 64-bit seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r to the state NewRNG(seed) starts from. A generator that is
// seeded in place needs no allocation.
func (r *RNG) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded draws.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("sim: Exp with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0,1], so the log is finite.
	return -math.Log(1-u) / rate
}

// Weibull returns a Weibull-distributed value with shape k and scale lambda.
// Shape k < 1 models infant mortality (decreasing hazard), k == 1 is
// exponential (constant hazard), k > 1 models wearout (increasing hazard) —
// the three regimes of the bathtub curve (paper Fig. 7).
func (r *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("sim: Weibull with non-positive parameter")
	}
	u := r.Float64()
	return scale * math.Pow(-math.Log(1-u), 1/shape)
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, via the polar Box-Muller transform (the spare value is not
// cached, keeping the stream stateless between calls of different types).
func (r *RNG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Poisson returns a Poisson-distributed count with the given mean, using
// inversion for small means and normal approximation for large ones.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		n := int(r.Norm(mean, math.Sqrt(mean)) + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Streams hands out named, independent RNG streams derived from one master
// seed. Requesting the same name twice returns the same stream instance.
type Streams struct {
	master uint64
	open   map[string]*stream
	// closed holds the streams Reset closed, by name, for reuse when they
	// are opened again.
	closed map[string]*stream
}

// stream is one named generator; kept marks it as one Reset keeps open.
type stream struct {
	RNG
	kept bool
}

// NewStreams returns a stream factory for the given master seed.
func NewStreams(master uint64) *Streams {
	return &Streams{master: master, open: make(map[string]*stream)}
}

// Stream returns the RNG stream with the given name, creating it on first
// use. The stream seed is a hash of the master seed and the name, so streams
// with different names are statistically independent.
func (st *Streams) Stream(name string) *RNG {
	if s, ok := st.open[name]; ok {
		return &s.RNG
	}
	s, ok := st.closed[name]
	if ok {
		delete(st.closed, name)
	} else {
		s = new(stream)
	}
	st.seed(s, name)
	st.open[name] = s
	return &s.RNG
}

// seed positions s at the start of the named stream under the current
// master seed.
func (st *Streams) seed(s *stream, name string) {
	seed := st.master
	for _, b := range []byte(name) {
		seed = (seed ^ uint64(b)) * 0x100000001b3 // FNV-1a style mixing
	}
	s.Seed(splitmix64(&seed))
}

// Keep marks every open stream as one Reset keeps open.
func (st *Streams) Keep() {
	for _, s := range st.open {
		s.kept = true
	}
}

// Reset switches the factory to a new master seed. The streams marked by
// Keep stay open and restart in place, so pointers to them stay valid;
// every other stream is closed, exactly as if it had never been opened.
// A closed stream's generator is handed out again, freshly seeded, when
// Stream next opens it.
func (st *Streams) Reset(master uint64) {
	st.master = master
	for name, s := range st.open {
		if s.kept {
			st.seed(s, name)
			continue
		}
		if st.closed == nil {
			st.closed = make(map[string]*stream)
		}
		st.closed[name] = s
		delete(st.open, name)
	}
}
