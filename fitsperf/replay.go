package main

import (
	"powerfits/internal/experiments"
	"powerfits/internal/kernels"
	"powerfits/internal/profile"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// prepare is sim.PrepareWith in a "sim.prepare" span. With a tracer the
// program's own stage record itemizes the span into its stages; a
// preparation that fails logs no record, so its whole cost stays the
// span's self time.
func prepare(t *tracer, id string, k kernels.Kernel, scale int, opts synth.Options, profiles *profile.Cache) (*sim.Setup, error) {
	var s *sim.Setup
	var err error
	t.do("sim.prepare", id, func() {
		s, err = sim.PrepareWith(k, scale, sim.PrepareOptions{Synth: opts, Profiles: profiles, Log: t.logger()})
	})
	return s, err
}

// hashResult folds every simulated statistic of one timing run into d:
// pipeline counters, cache counts and the energy totals bit for bit.
func hashResult(d *digest, r *sim.Result) {
	p := r.Pipe
	d.u64(p.Cycles, p.Instrs, p.FetchAccesses, p.FetchStalls, p.Bubbles,
		p.Branches, p.Taken, p.Mispredicts,
		p.ZeroIssueMiss, p.ZeroIssueBubble, p.ZeroIssueFetch, p.ZeroIssueHazard, p.DualIssueCycles,
		r.Cache.Accesses, r.Cache.Misses,
		r.Power.Cycles, r.Power.Accesses, r.Power.Misses)
	d.f64(r.Power.SwitchingPJ, r.Power.InternalPJ, r.Power.LeakagePJ, r.Power.PeakPowerW)
	d.u64(uint64(len(p.Output)))
	for _, w := range p.Output {
		d.u64(uint64(w))
	}
}

// simCounts accumulates the per-layer counts of timing runs.
type simCounts struct {
	instrs, cycles, accesses, misses uint64
	sampledRuns, fallbacks           uint64
	detailed, total                  uint64
}

func (c *simCounts) add(r *sim.Result) {
	c.instrs += r.Pipe.Instrs
	c.cycles += r.Pipe.Cycles
	c.accesses += r.Cache.Accesses
	c.misses += r.Cache.Misses
	if s := r.Sampled; s != nil {
		c.sampledRuns++
		if s.Exact {
			c.fallbacks++
		}
		c.detailed += s.DetailedInstrs
		c.total += s.TotalInstrs
	}
}

// addRows adds the timing runs behind a served report's result rows.
func (c *simCounts) addRows(rows []experiments.ConfigOutcome) {
	for _, r := range rows {
		c.instrs += r.Instrs
		c.cycles += r.Cycles
		c.accesses += r.Fetches
		c.misses += r.Misses
		if s := r.Sample; s != nil {
			c.sampledRuns++
			if s.Exact {
				c.fallbacks++
			}
			c.detailed += s.DetailedInstrs
			c.total += s.TotalInstrs
		}
	}
}

// publishProfiles sets the profile memo's counts as its Stats report
// them (hits, misses) over the work of one replay.
func publishProfiles(o *outcome, hits, misses uint64) {
	o.set("profile.collects", float64(misses))
	o.set("profile.memo_hits", float64(hits))
	if n := hits + misses; n > 0 {
		o.set("profile.memo_hit_ratio", float64(hits)/float64(n))
	}
}

// publish sets the sim/cache counts; runSec is the traced self time of
// exact runs, which turns the instruction count into a rate.
func (c *simCounts) publish(o *outcome, exactInstrs uint64, runSec float64) {
	o.set("sim.instrs", float64(c.instrs))
	o.set("sim.cycles", float64(c.cycles))
	o.set("cache.accesses", float64(c.accesses))
	o.set("cache.misses", float64(c.misses))
	o.set("sim.sampled_runs", float64(c.sampledRuns))
	o.set("sim.sampled_fallbacks", float64(c.fallbacks))
	frac := 0.0
	if c.total > 0 {
		frac = float64(c.detailed) / float64(c.total)
	}
	o.set("sim.sampled_detail_frac", frac)
	rate := 0.0
	if runSec > 0 {
		rate = float64(exactInstrs) / runSec
	}
	o.set("sim.minstr_per_s", rate/1e6)
}
