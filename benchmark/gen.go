package main

import "datacell/internal/vector"

// The generator is stateless per slide: slide i of stream j under a seed
// is a pure function of (seed, j, i). The feeder makes each slide just
// before sending it and the oracle re-makes the slides of any window it
// wants to check, so no input has to be retained and the same seed always
// gives the same bytes.

// vRange is the exclusive upper bound of the v column on every workload.
const vRange = 1000

// splitmix64 is the generator's only source of randomness.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// slideState derives the PRNG state of one (seed, stream, slide) cell.
func slideState(seed uint64, stream, slide int) uint64 {
	x := seed ^ 0x6a09e667f3bcc909
	x = splitmix64(&x) ^ uint64(stream+1)*0xd1342543de82ef95
	x = splitmix64(&x) ^ uint64(slide+1)
	splitmix64(&x)
	return x
}

// fillSlide writes slide number slide (0-based) of stream number stream
// into k and v, which must both have the slide's row count: k uniform over
// [0, keys), v uniform over [0, vRange).
func fillSlide(seed uint64, stream, slide int, keys int64, k, v []int64) {
	st := slideState(seed, stream, slide)
	for i := range k {
		x := splitmix64(&st)
		k[i] = int64((x >> 32) % uint64(keys))
		v[i] = int64((x & 0xffffffff) % vRange)
	}
}

// slideBuf is the feeder's reusable pair of column vectors for one stream.
type slideBuf struct {
	k, v []int64
	cols []*vector.Vector
}

func newSlideBuf(rows int) *slideBuf {
	return &slideBuf{
		k:    make([]int64, rows),
		v:    make([]int64, rows),
		cols: []*vector.Vector{vector.New(vector.Int64, rows), vector.New(vector.Int64, rows)},
	}
}

// fill makes one slide and returns it as the (k, v) column pair the wire
// protocol and the engine take. The vectors are reused by the next fill.
func (b *slideBuf) fill(seed uint64, stream, slide int, keys int64) []*vector.Vector {
	fillSlide(seed, stream, slide, keys, b.k, b.v)
	b.cols[0].Truncate(0)
	b.cols[0].AppendInt64s(b.k)
	b.cols[1].Truncate(0)
	b.cols[1].AppendInt64s(b.v)
	return b.cols
}
