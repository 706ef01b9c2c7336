package main

import (
	"math"
	"sort"
)

// rng is a splitmix64 stream. Every random choice the benchmark makes —
// edge-sampling seeds, arrival times, keys, mutation streams — comes from
// an rng derived from the run's --seed and a fixed stream number, so one
// seed always produces the same inputs.
type rng struct{ state uint64 }

// Stream numbers keep the benchmark's independent random choices apart.
const (
	streamSamples uint64 = iota + 1
	streamJobs
	streamArrivals
)

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{state: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next() // decorrelate nearby seeds
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// int63 returns a non-negative int64, for seeding the library's samplers.
func (r *rng) int63() int64 { return int64(r.next() >> 1) }

// exp returns an exponential inter-arrival time for a Poisson process of
// the given rate, in the rate's time unit.
func (r *rng) exp(rate float64) float64 { return -math.Log(1-r.float()) / rate }

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

// rank returns the rank at cumulative probability u in [0, 1).
func (z *zipf) rank(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	return min(k, len(z.cdf)-1)
}

// stratified deals uniforms in [0, 1) in shuffled blocks holding one
// value from each of n equal strata, so every block of n draws covers the
// whole distribution and a run's share of rare draws (here: cold cache
// keys) does not drift with the seed.
type stratified struct {
	block []float64
	pos   int
}

func newStratified(n int) *stratified {
	return &stratified{block: make([]float64, n), pos: n}
}

func (s *stratified) next(r *rng) float64 {
	if s.pos == len(s.block) {
		n := len(s.block)
		for i := range s.block {
			s.block[i] = (float64(i) + r.float()) / float64(n)
		}
		for i := n - 1; i > 0; i-- {
			j := r.intn(i + 1)
			s.block[i], s.block[j] = s.block[j], s.block[i]
		}
		s.pos = 0
	}
	u := s.block[s.pos]
	s.pos++
	return u
}

// deck deals job classes in shuffled blocks holding each class exactly its
// count, so every block of len(deck) jobs carries the declared mix and a
// run's class shares do not drift with the seed.
type deck struct {
	cards []int
	pos   int
}

func newDeck(counts []int) *deck {
	var cards []int
	for class, n := range counts {
		for range n {
			cards = append(cards, class)
		}
	}
	return &deck{cards: cards, pos: len(cards)}
}

func (d *deck) deal(r *rng) int {
	if d.pos == len(d.cards) {
		for i := len(d.cards) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
		}
		d.pos = 0
	}
	c := d.cards[d.pos]
	d.pos++
	return c
}
