package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// rung is one step of an open-loop rate ladder: a fixed offered rate
// held for a fixed share of the measurement window.
type rung struct {
	rateHz float64
	share  float64
}

// poissonSchedule returns the due times, relative to the start of the
// rung, of Poisson arrivals at rateHz over span, drawn from a generator
// seeded with seed. The process is conditioned on its count: exactly
// round(rateHz*span) arrivals, placed independently and uniformly over
// the span, which is how a Poisson process with that many arrivals is
// distributed. The offered rate is then the same for every seed, so the
// carried rate of a rung does not move with the seed's arrival count.
// The same arguments always give the same schedule.
func poissonSchedule(seed int64, rateHz float64, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rateHz * span.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ladderSchedules draws one schedule per rung of the ladder, each from
// its own seed derived from the workload seed.
func ladderSchedules(seed int64, ladder []rung, window time.Duration) [][]time.Duration {
	out := make([][]time.Duration, len(ladder))
	for i, r := range ladder {
		span := time.Duration(r.share * float64(window))
		out[i] = poissonSchedule(seed*1000+int64(i), r.rateHz, span)
	}
	return out
}
