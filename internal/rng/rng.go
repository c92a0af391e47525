// Package rng is the repository's explicitly seeded generator: a splitmix64
// stream (Steele, Lea & Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014). Draw k of the stream seeded s is
// Mix(s + (k+1)·Gamma), so a stream reaches any draw by index, and
// SplitSeed derives independent substreams from a seed. Equal seeds give
// equal streams on every platform: the generator is pure 64-bit arithmetic.
// The package deliberately avoids math/rand — the rngdeterminism vet rule
// only certifies sources whose entire state is the seed handed to them, and
// the global rand functions share hidden state across goroutines.
package rng

// Gamma is splitmix64's increment, the odd integer nearest 2⁶⁴/φ.
const Gamma = 0x9e3779b97f4a7c15

// RNG is one stream: one instance per user, so parallel users replay
// bit-identically from their seeds alone.
type RNG struct {
	state uint64
	// virt is PickK's scratch, never part of the stream's state: entry j
	// holds gen<<32 | value for a position of the virtual identity array
	// that PickK call number gen has overwritten.
	virt []uint64
	gen  uint32
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{state: uint64(seed)}
}

// Seed restarts the stream at seed, keeping PickK's scratch.
func (r *RNG) Seed(seed int64) { r.state = uint64(seed) }

// SplitSeed derives the seed of substream (a, b) of seed (the sampler's
// (epoch, batch)): a splitmix64 finalization over the three values, so
// every pair gets an independent stream while remaining a pure function of
// (seed, a, b) — the determinism contract parity tests rely on.
func SplitSeed(seed int64, a, b int) int64 {
	x := uint64(seed)
	x = Mix(x + Gamma*uint64(a+1))
	x = Mix(x + Gamma*uint64(b+1))
	return int64(x)
}

// Mix is the splitmix64 output permutation, a bijection of the 64-bit words.
func Mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += Gamma
	return Mix(r.state)
}

// Float64 returns a uniform value in [0, 1) from the top 53 bits of one
// draw: every value is exact, and none is 1.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). Panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	// Modulo with rejection of the biased tail, the draws below 2⁶⁴ mod n.
	// That bound is less than n, so a draw of at least n skips computing it.
	bound := uint64(n)
	for {
		v := r.Uint64()
		if v >= bound || v >= -bound%bound {
			return int(v % bound)
		}
	}
}

// Shuffle pseudo-randomizes the order of n elements via swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// PickK writes a uniform sample without replacement of k values from
// [0, n) into dst (which must have length k) and returns it — the inner
// loop of fanout sampling, a partial Fisher–Yates that draws exactly k
// values from the stream instead of permuting all n.
func (r *RNG) PickK(dst []int, n int) []int {
	k := len(dst)
	if k > n {
		panic("rng: PickK with k > n")
	}
	// Partial Fisher–Yates over a lazily materialized identity array: a
	// position reads as its own index unless this call (this generation)
	// has stored a value there, so nothing is cleared between calls.
	if len(r.virt) < n {
		r.virt = make([]uint64, n)
	}
	if r.gen++; r.gen == 0 {
		clear(r.virt)
		r.gen = 1
	}
	gen := uint64(r.gen)
	at := func(i int) int {
		if e := r.virt[i]; e>>32 == gen {
			return int(uint32(e))
		}
		return i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		dst[i] = at(j)
		r.virt[j] = gen<<32 | uint64(at(i))
	}
	return dst
}
