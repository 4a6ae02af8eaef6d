package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p90 over fewer than 100 samples rests on fewer than ten slow ones
// and is refused rather than reported.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the
// nearest-rank rule, refusing when fewer than minBeyond samples lie
// strictly beyond the rank it picks.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of 0 samples", q*100)
	}
	rank := int(math.Ceil(q*float64(n))) - 1 // 0-based nearest rank
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need %d",
			q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// median is the middle value (mean of the middle two), with no sample
// floor: it is used for per-layer summaries and set-up repetitions, not
// for the gated latency percentiles.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoopLatency is a session's latency in an open loop: from the time
// it was due to be sent — not when the generator got round to sending
// it — until its report was received, so a stall that delays later
// sends is charged to them.
func openLoopLatency(due, received time.Time) time.Duration { return received.Sub(due) }

// tally counts one run's sessions for the end-to-end fractions. A
// refused session (429/503) is attempted and failed; so is one that
// errored or returned a wrong answer.
type tally struct {
	attempted, refused, errored, wrong int
	sloMet                             int
}

// failed is every attempted session that did not yield a correct answer.
func (t tally) failed() int { return t.refused + t.errored + t.wrong }

// errorFrac is failed operations over attempted ones; a refusal counts
// in both.
func errorFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// sloMetFrac is the share of attempted sessions answered correctly
// within the latency limit; failed and refused sessions count as misses.
func (t tally) sloMetFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.sloMet) / float64(t.attempted)
}
