package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tail returns the nearest-rank value at quantile q of the ascending
// slice xs. When fewer than minBeyond samples would lie above it, the
// quantile is lowered to the highest one that leaves minBeyond above;
// used reports the quantile actually taken. ok is false when there are
// not more than minBeyond samples at all.
func tail(xs []float64, q float64) (v, used float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	// The epsilon keeps q*n that is integral in exact arithmetic from
	// rounding up a rank.
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if n-r < minBeyond {
		r = n - minBeyond
	}
	return xs[r-1], float64(r) / float64(n), true
}

// median is the nearest-rank 50th percentile of an ascending slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	r := int(math.Ceil(0.5 * float64(len(xs))))
	return xs[max(r, 1)-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	sort.Float64s(xs)
	return xs
}

// tally is the outcome count of one phase.
type tally struct {
	published  int // events offered
	refused    int // events whose publish was answered with an error
	expected   int // (subscription, event) deliveries the reference predicts
	lost       int // expected deliveries that never arrived
	duplicated int // deliveries beyond the first of a pair
	unexpected int // deliveries the reference does not predict
	wrongScore int // deliveries whose score differs from the reference
}

// failRatio is (refused + lost + duplicated + unexpected) over
// (publishes attempted + deliveries expected).
func (t tally) failRatio() float64 {
	den := t.published + t.expected
	if den == 0 {
		return 0
	}
	return float64(t.failed()) / float64(den)
}

func (t tally) failed() int { return t.refused + t.lost + t.duplicated + t.unexpected }

func (t *tally) add(o tally) {
	t.published += o.published
	t.refused += o.refused
	t.expected += o.expected
	t.lost += o.lost
	t.duplicated += o.duplicated
	t.unexpected += o.unexpected
	t.wrongScore += o.wrongScore
}
