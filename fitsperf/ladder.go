package main

import "math"

// The service's capacity, serve.max_rps (measured by the traced run),
// is the highest offered rate whose p99 latency, timed from each
// request's due time, meets a fixed limit with no failed request and no
// growing generator backlog. The search climbs a fixed geometric ladder
// until a rung fails, then bisects the bracket in log rate, so the
// figure has a resolution of ladderStep^(1/2^bisectSteps) (≈ 2.8 %)
// instead of a whole step. The constants were set once from the seed
// commit on a 2-CPU machine and are frozen (README.md, "synth_service").
const (
	latencyLimitMs = 300.0
	ladderBase     = 600.0 // first rung, requests per second
	ladderStep     = 1.25  // ratio between rungs
	bisectSteps    = 3
	ladderRungs    = 12    // at most this many rungs per run
	rungShare      = 0.06  // of the budget per rung
	fixedRate      = 200.0 // the rate p50_ms and p99_ms are measured at
	countShare     = 0.35  // of the budget for the traced run's count pass
)

// rung is the measured outcome of one offered rate.
type rung struct {
	rate    float64 // offered requests per second
	p99     float64 // ms from due time; a failed request counts as +Inf
	failed  int
	backlog bool
}

func (r rung) passes() bool { return r.failed == 0 && !r.backlog && r.p99 <= latencyLimitMs }

// climb runs the search: measure is called once per rung, while more
// reports time left. From ladderBase it climbs (or, when the first rung
// fails, descends) by ladderStep until the outcome flips, then bisects.
func climb(measure func(rate float64) rung, more func() bool) []rung {
	var rungs []rung
	lo, hi := 0.0, math.Inf(1)
	rate := ladderBase
	for bisect := 0; bisect <= bisectSteps && len(rungs) < ladderRungs && more(); {
		r := measure(rate)
		rungs = append(rungs, r)
		if r.passes() {
			lo = rate
		} else {
			hi = rate
		}
		switch {
		case math.IsInf(hi, 1):
			rate = lo * ladderStep
		case lo == 0:
			rate = hi / ladderStep
		default:
			rate = math.Sqrt(lo * hi)
			bisect++
		}
	}
	return rungs
}

// maxRate is the highest passing rate below the lowest failing one (0
// when nothing passed).
func maxRate(rungs []rung) float64 {
	fail := math.Inf(1)
	for _, r := range rungs {
		if !r.passes() {
			fail = math.Min(fail, r.rate)
		}
	}
	best := 0.0
	for _, r := range rungs {
		if r.passes() && r.rate < fail {
			best = math.Max(best, r.rate)
		}
	}
	return best
}

// growing reports a growing generator backlog: requests in the last
// quarter of a rung waited (due → sent) longer than those in the first
// quarter by more than half the latency limit. A transient burst of
// cold requests queues for a while and drains; a backlog that grows
// over the whole rung does not.
func growing(waitsMs []float64) bool {
	n := len(waitsMs) / 4
	if n == 0 {
		return false
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	return mean(waitsMs[len(waitsMs)-n:])-mean(waitsMs[:n]) > latencyLimitMs/2
}

// measureRung reduces a rung's samples.
func measureRung(rate float64, samples []sample) rung {
	r := rung{rate: rate}
	lat := make([]float64, len(samples))
	waits := make([]float64, len(samples))
	for i := range samples {
		lat[i] = samples[i].latencyMs()
		waits[i] = samples[i].waitMs()
		if !samples[i].ok() {
			r.failed++
		}
	}
	r.p99 = quantile(lat, 0.99)
	r.backlog = growing(waits)
	return r
}
