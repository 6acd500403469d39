package sim

// Rand is a small, fast, deterministic PRNG (splitmix64 seeding a
// xoshiro256** core). It deliberately does not use math/rand so that the
// stream is stable across Go releases: crash-test campaigns cite seeds, and
// a seed must reproduce the same crash forever.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances a seed and returns the next output; used to expand a
// single 64-bit seed into the 256-bit xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRand returns a generator seeded from seed. Distinct seeds give
// independent streams; the zero seed is valid.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a 64-bit seed.
func (r *Rand) Seed(seed uint64) {
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair pseudo-random boolean.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Range returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *Rand) Range(lo, hi int) int {
	if hi < lo {
		panic("sim: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bytes fills b with pseudo-random bytes.
func (r *Rand) Bytes(b []byte) {
	var w uint64
	for i := range b {
		if i%8 == 0 {
			w = r.Uint64()
		}
		b[i] = byte(w)
		w >>= 8
	}
}

// Fork derives an independent child generator from the current state.
// The parent stream advances by one draw. Useful for giving each subsystem
// (fault injector, workload, disk) its own stream so that adding draws in
// one does not perturb the others.
func (r *Rand) Fork() *Rand { return NewRand(r.Uint64()) }
