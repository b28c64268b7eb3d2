package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have
// above it; a percentile with fewer is noise, not a tail.
const minBeyond = 10

// rank returns the 1-based rank of the q-quantile of n samples: the
// smallest sample with at least q·n samples at or below it.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether the q-quantile of n samples has at least
// minBeyond samples above it.
func supported(q float64, n int) bool {
	return n > 0 && n-rank(q, n) >= minBeyond
}

// quantile returns the q-quantile of sorted (ascending) values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// median sorts a copy of vs and returns its middle value (the mean of
// the two middle values for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// A window is cut into equal time blocks and reports the interquartile
// mean of its blocks' values (midmean): outlying blocks, such as a burst
// of contention, are dropped, and a quantity that flips between modes, as
// lock contention does, moves smoothly with the share of time spent in
// each instead of jumping. A move block must hold enough moves for its
// median.
const (
	resolveBlocks = 10 // per resolve window
	moveBlocks    = 10
)

// blockOf maps an offset into a window of n blocks to its block.
func blockOf(at, blockLen time.Duration, n int) int {
	b := int(at / blockLen)
	if b < 0 {
		return 0
	}
	if b >= n {
		return n - 1
	}
	return b
}

// midmean is the mean of the middle half of vs: the lowest and highest
// quarter are dropped.
func midmean(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := len(s) / 4
	mid := s[q : len(s)-q]
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// blockMetric reports the midmean over n blocks of f(block), keeping each
// block's value beside it.
func blockMetric(n int, unit string, samples int, f func(i int) float64) metric {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = f(i)
	}
	return metric{Value: midmean(vs), Unit: unit, N: samples, Blocks: vs}
}

// histBits sets the histogram's resolution: values below 2^histBits ns
// are counted exactly, larger ones in buckets 2^-(histBits-1) wide
// relative to their value (0.2% at 10 bits).
const histBits = 10

// hist is a log-linear latency histogram over nanoseconds. Recording is
// one index computation and one increment, so it can sit on a path that
// runs a million times a second; it is not safe for concurrent use (each
// client owns one and they are merged afterwards).
type hist struct {
	counts []uint64
	n      int
}

func newHist() *hist {
	return &hist{counts: make([]uint64, (65-histBits)<<(histBits-1)+(1<<histBits))}
}

func bucketOf(v int64) int {
	if v < 1<<histBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	s := bits.Len64(uint64(v)) - histBits
	return s<<(histBits-1) + int(uint64(v)>>s)
}

// bucketValue is the midpoint of bucket i, in nanoseconds.
func bucketValue(i int) float64 {
	if i < 1<<histBits {
		return float64(i)
	}
	// i = s·2^(b-1) + top with top in [2^(b-1), 2^b), so i>>(b-1) = s+1.
	s := (i >> (histBits - 1)) - 1
	top := i - s<<(histBits-1)
	lo := float64(uint64(top) << s)
	return lo + float64(uint64(1)<<s)/2
}

func newHists(n int) []*hist {
	out := make([]*hist, n)
	for i := range out {
		out[i] = newHist()
	}
	return out
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileNs returns the q-quantile in nanoseconds (bucket midpoint).
func (h *hist) quantileNs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	want := uint64(rank(q, h.n))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= want {
			return bucketValue(i)
		}
	}
	return 0
}
