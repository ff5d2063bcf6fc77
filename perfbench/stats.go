package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a timing may be reported at,
// highest first. A percentile is only quoted when at least minBeyond
// samples lie beyond it, so a tail figure never rests on a handful of
// points.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// tailPercentile returns the highest percentile on tailLadder, capped
// at limit, with at least minBeyond of n samples beyond it (0 when even
// the median has too few).
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailLadder {
		if p > limit {
			continue
		}
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 { // tolerate 99.9's rounding
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// timing summarises one latency sample set the way every timing is
// reported: the median, and the tail at the highest percentile (at most
// p99) the sample count supports.
type timing struct {
	N      int
	P50    float64
	Tail   float64
	TailAt float64  // the percentile Tail was taken at
	Parts  []timing // per sub-window, when windowed
}

func summarize(xs []float64) timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := timing{N: len(s), P50: percentile(s, 50)}
	t.TailAt = tailPercentile(len(s), 99)
	if t.TailAt > 0 {
		t.Tail = percentile(s, t.TailAt)
	} else {
		t.Tail = percentile(s, 100)
	}
	return t
}

// sample is one latency, keyed by when its op was due.
type sample struct {
	due int64 // ns from the run's start
	ms  float64
}

func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// subWindows is how many equal slices the measured window is cut into
// at most. Each slice's median and tail are computed on their own and
// the run reports the median slice: a stall that hits one slice (a
// neighbour's burst on a shared host) moves that slice's figures, not
// the run's. A sample set too small to give every slice a p99 (1000
// samples) is cut into fewer slices, down to one.
const subWindows = 5

// windowedTiming summarises samples due in [from, to) slice by slice.
// The reported tail percentile is the lowest any slice supports.
func windowedTiming(ss []sample, from, to int64, k int) timing {
	n := 0
	for _, s := range ss {
		if s.due >= from && s.due < to {
			n++
		}
	}
	k = max(1, min(k, n/1000))
	parts := make([][]float64, k)
	span := (to - from) / int64(k)
	for _, s := range ss {
		if s.due < from || s.due >= to || span <= 0 {
			continue
		}
		i := min(int((s.due-from)/span), k-1)
		parts[i] = append(parts[i], s.ms)
	}
	var p50s, tails []float64
	out := timing{TailAt: 100}
	for _, p := range parts {
		t := summarize(p)
		if t.N == 0 {
			continue
		}
		p50s = append(p50s, t.P50)
		tails = append(tails, t.Tail)
		out.Parts = append(out.Parts, t)
		out.N += t.N
		out.TailAt = min(out.TailAt, t.TailAt)
	}
	if len(p50s) == 0 {
		return timing{P50: math.NaN(), Tail: math.NaN()}
	}
	out.P50, out.Tail = median(p50s), median(tails)
	out.N /= len(p50s)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rung is one step of a rate ladder as measured.
type rung struct {
	Rate       float64
	P99        float64 // latency tail at this rate, ms
	Failed     int     // ops failed or refused at this rate
	BacklogLog []int   // outstanding (due but unacked) ops, sampled evenly
}

// backlogGrows reports whether an outstanding-work series trends up
// over a rung: the mean of its last third exceeds the first third's by
// more than half plus a small absolute slack. A system keeping up holds
// a level (if noisy) backlog; an overloaded one accumulates.
func backlogGrows(series []int, slack int) bool {
	if len(series) < 3 {
		return false
	}
	k := len(series) / 3
	var first, last float64
	for _, v := range series[:k] {
		first += float64(v)
	}
	for _, v := range series[len(series)-k:] {
		last += float64(v)
	}
	first /= float64(k)
	last /= float64(k)
	return last > 1.5*first+float64(slack)
}

// ladderMax walks rungs in ascending rate order and returns the highest
// rate that meets the latency limit with no failures and no growing
// backlog, stopping at the first rung that misses (a later rung that
// passes by luck does not count). It returns 0 when the lowest rung
// already misses.
func ladderMax(rungs []rung, limitMs float64, slack int) float64 {
	best := 0.0
	for _, r := range rungs {
		if r.Failed > 0 || !(r.P99 < limitMs) || backlogGrows(r.BacklogLog, slack) {
			break
		}
		best = r.Rate
	}
	return best
}
