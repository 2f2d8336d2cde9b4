package main

import (
	"math/rand"

	"repro/internal/trafficgen"
)

// prngSource adapts the repository's seedable xorshift generator to
// math/rand so the standard rejection-inversion Zipf sampler draws from
// it: one seed fixes every draw.
type prngSource struct{ p *trafficgen.PRNG }

func (s prngSource) Uint64() uint64 { return s.p.Next() }
func (s prngSource) Int63() int64   { return int64(s.p.Next() >> 1) }
func (prngSource) Seed(int64)       {}

// flowPicker draws flow ordinals in [0, flows).
type flowPicker func() uint32

// zipfPicker draws ranks with P(rank r) proportional to r^-s (r from 1)
// and maps rank r to flow perm[r-1], so which flows are popular depends
// on the seed rather than on flow numbering.
func zipfPicker(seed uint64, s float64, flows int) flowPicker {
	p := trafficgen.NewPRNG(seed)
	perm := make([]uint32, flows)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := flows - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	z := rand.NewZipf(rand.New(prngSource{p}), s, 1, uint64(flows-1))
	return func() uint32 { return perm[z.Uint64()] }
}

// uniformPicker draws every flow with equal probability.
func uniformPicker(seed uint64, flows int) flowPicker {
	p := trafficgen.NewPRNG(seed)
	return func() uint32 { return uint32(p.Intn(flows)) }
}
