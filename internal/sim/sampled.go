package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"powerfits/internal/cache"
	"powerfits/internal/cpu"
	"powerfits/internal/power"
	"powerfits/internal/tracing"
)

// SampleOptions parameterises the sampled timing run: a detailed head,
// then systematic periods of [functional fast-forward][detailed warmup]
// [measured window] over the rest of the instruction stream. All counts
// are in instructions; zero fields take the defaults below.
type SampleOptions struct {
	// HeadInstrs is the exact detailed prefix. The cold-start miss burst
	// lives here, so it is measured rather than extrapolated.
	HeadInstrs uint64
	// PeriodInstrs is the sampling period: one warmup+window pair is
	// simulated in detail out of every period.
	PeriodInstrs uint64
	// WindowInstrs is the measured window length per period.
	WindowInstrs uint64
	// WarmupInstrs is the detailed-but-unmeasured run before each
	// window, re-warming the pipeline interlocks and cache after the
	// functional fast-forward.
	WarmupInstrs uint64
	// MinWindows is the minimum number of measured windows for the
	// estimate to stand; runs that halt earlier fall back to an exact
	// full simulation (reported via SampleStats.Exact).
	MinWindows int
}

// DefaultSampleOptions returns the tuning validated by
// TestSampledAccuracy: ~5 % of the stream simulated in detail, with
// the error bound documented in DESIGN.md §11. The period is kept off
// powers of two on purpose — 4096 resonates with the phase structure
// of the block-structured kernels (jpeg in particular) and triples the
// cycle error there.
func DefaultSampleOptions() SampleOptions {
	return SampleOptions{
		HeadInstrs:   1024,
		PeriodInstrs: 6144,
		WindowInstrs: 256,
		WarmupInstrs: 64,
		MinWindows:   6,
	}
}

func (o SampleOptions) withDefaults() SampleOptions {
	d := DefaultSampleOptions()
	if o.HeadInstrs == 0 {
		o.HeadInstrs = d.HeadInstrs
	}
	if o.PeriodInstrs == 0 {
		o.PeriodInstrs = d.PeriodInstrs
	}
	if o.WindowInstrs == 0 {
		o.WindowInstrs = d.WindowInstrs
	}
	if o.WarmupInstrs == 0 {
		o.WarmupInstrs = d.WarmupInstrs
	}
	if o.MinWindows == 0 {
		o.MinWindows = d.MinWindows
	}
	return o
}

// Validate checks the sampling geometry: the warmup and window must
// leave room in the period for a fast-forward, or the "sampled" run
// would simulate everything in detail while paying resync churn.
func (o SampleOptions) Validate() error {
	if o.WarmupInstrs+o.WindowInstrs >= o.PeriodInstrs {
		return fmt.Errorf("sim: sample options: warmup %d + window %d must be < period %d",
			o.WarmupInstrs, o.WindowInstrs, o.PeriodInstrs)
	}
	if o.WindowInstrs == 0 {
		return fmt.Errorf("sim: sample options: window must be positive")
	}
	if o.MinWindows < 2 {
		return fmt.Errorf("sim: sample options: MinWindows %d (need ≥ 2 for a variance estimate)", o.MinWindows)
	}
	return nil
}

// SampleStats describes how a sampled estimate was formed.
type SampleStats struct {
	// Windows is the number of measured windows behind the estimate.
	Windows int
	// TotalInstrs is the exact dynamic instruction count (every
	// instruction executes functionally; only timing is sampled).
	TotalInstrs uint64
	// DetailedInstrs counts instructions simulated cycle-accurately
	// (head + warmups + windows); the rest were fast-forwarded.
	DetailedInstrs uint64
	// SampledInstrs counts instructions inside measured windows.
	SampledInstrs uint64
	// CycleRelCI and EnergyRelCI are the half-widths of the 95 %
	// confidence intervals on total cycles and total fetch energy,
	// relative to the estimates (0 for an exact run).
	CycleRelCI  float64
	EnergyRelCI float64
	// Exact is set when the run halted before MinWindows measured
	// windows and the result is a full detailed simulation instead of
	// an estimate.
	Exact bool
}

// sampleSnap is a point-in-time capture of every counter the estimator
// extrapolates.
type sampleSnap struct {
	pipe   cpu.PipeResult
	instrs uint64
	acc    uint64
	miss   uint64
	swPJ   float64
	inPJ   float64
	lkPJ   float64
}

// sub returns the counter deltas a-b. The Output slice inside the
// embedded PipeResult is not meaningful on a delta and is cleared.
func (a sampleSnap) sub(b sampleSnap) sampleSnap {
	d := sampleSnap{
		instrs: a.instrs - b.instrs,
		acc:    a.acc - b.acc,
		miss:   a.miss - b.miss,
		swPJ:   a.swPJ - b.swPJ,
		inPJ:   a.inPJ - b.inPJ,
		lkPJ:   a.lkPJ - b.lkPJ,
	}
	d.pipe = cpu.PipeResult{
		Cycles:          a.pipe.Cycles - b.pipe.Cycles,
		Instrs:          a.pipe.Instrs - b.pipe.Instrs,
		FetchAccesses:   a.pipe.FetchAccesses - b.pipe.FetchAccesses,
		FetchStalls:     a.pipe.FetchStalls - b.pipe.FetchStalls,
		Bubbles:         a.pipe.Bubbles - b.pipe.Bubbles,
		Branches:        a.pipe.Branches - b.pipe.Branches,
		Taken:           a.pipe.Taken - b.pipe.Taken,
		Mispredicts:     a.pipe.Mispredicts - b.pipe.Mispredicts,
		ZeroIssueMiss:   a.pipe.ZeroIssueMiss - b.pipe.ZeroIssueMiss,
		ZeroIssueBubble: a.pipe.ZeroIssueBubble - b.pipe.ZeroIssueBubble,
		ZeroIssueFetch:  a.pipe.ZeroIssueFetch - b.pipe.ZeroIssueFetch,
		ZeroIssueHazard: a.pipe.ZeroIssueHazard - b.pipe.ZeroIssueHazard,
		DualIssueCycles: a.pipe.DualIssueCycles - b.pipe.DualIssueCycles,
	}
	return d
}

func (a *sampleSnap) add(d sampleSnap) {
	a.instrs += d.instrs
	a.acc += d.acc
	a.miss += d.miss
	a.swPJ += d.swPJ
	a.inPJ += d.inPJ
	a.lkPJ += d.lkPJ
	a.pipe.Cycles += d.pipe.Cycles
	a.pipe.Instrs += d.pipe.Instrs
	a.pipe.FetchAccesses += d.pipe.FetchAccesses
	a.pipe.FetchStalls += d.pipe.FetchStalls
	a.pipe.Bubbles += d.pipe.Bubbles
	a.pipe.Taken += d.pipe.Taken
	a.pipe.Branches += d.pipe.Branches
	a.pipe.Mispredicts += d.pipe.Mispredicts
	a.pipe.ZeroIssueMiss += d.pipe.ZeroIssueMiss
	a.pipe.ZeroIssueBubble += d.pipe.ZeroIssueBubble
	a.pipe.ZeroIssueFetch += d.pipe.ZeroIssueFetch
	a.pipe.ZeroIssueHazard += d.pipe.ZeroIssueHazard
	a.pipe.DualIssueCycles += d.pipe.DualIssueCycles
}

// covRange is one remembered warm-cover window (see sampleState).
type covRange struct{ lo, hi uint32 }

// sampleLane is one configuration's share of a sampled run: its cache
// and meter (the lead's, or a follower's riding the lead's fetch port),
// and the snapshots, window sums and per-window energy ratios its
// estimate is formed from.
type sampleLane struct {
	cfg Config
	c   *cache.Cache
	m   *power.Meter
	f   *follower // nil for the lead

	head, w0, wsum sampleSnap
	energyRatios   []float64
}

// live reports whether the lane still rides the run: the lead always
// does, a follower until its first hit/miss mismatch.
func (ln *sampleLane) live() bool { return ln.f == nil || !ln.f.diverged }

// snap captures the lane's counters at the run's current point.
func (ln *sampleLane) snap(res *cpu.PipeResult, m *cpu.Machine) sampleSnap {
	s := sampleSnap{pipe: *res, instrs: m.InstrCount}
	st := ln.c.Stats()
	s.acc, s.miss = st.Accesses, st.Misses
	s.swPJ, s.inPJ, s.lkPJ = ln.m.EnergyPJ()
	return s
}

// sampleState is the per-run scratch of the sampled loop, hoisted into
// one allocation so the window loop itself stays off the heap: the
// warm-cover memo behind the functional fast-forward, the per-window
// cycle ratio series shared by every lane, and the lanes with their
// energy ratio series, all preallocated from the profile's dynamic
// instruction count. The run's total allocation count is pinned by
// TestSampledAllocsPinned.
type sampleState struct {
	lineMask  uint32
	lineBytes uint32

	// The executor reports the same few ranges over and over inside a
	// hot loop (block body, exit branch, callee); remembering the
	// recently covered windows avoids a cache probe per iteration — the
	// lines are resident and their relative recency cannot change while
	// execution cycles within them. The memo is cleared at each
	// segment start because detailed windows run between segments and
	// may evict lines the memo still claims as covered. Its skip
	// decisions depend only on the (lo, hi) sequence and the line mask,
	// so one memo serves every lane of equal line size.
	cov    [4]covRange
	covIdx int

	cycleRatios []float64
	lanes       []sampleLane
	// lane0 backs lanes in a fresh state, so the common one-configuration
	// run costs no lane allocation of its own.
	lane0 [1]sampleLane
}

// samplePool recycles sampleStates (and the ratio slices they carry)
// across sampled runs. A one-shot CLI run never notices, but the serve
// hot path issues sampled runs per request, and without the pool each
// pays the scratch allocations anew.
var samplePool = sync.Pool{New: func() any {
	st := new(sampleState)
	st.lanes = st.lane0[:]
	return st
}}

// newSampleState checks a recycled (or fresh) sampleState out of the
// pool with one lane per configuration of cfgs (all of lineBytes) and
// ratio capacity of at least hint per series.
func newSampleState(cfgs []Config, lineBytes int, hint int) *sampleState {
	st := samplePool.Get().(*sampleState)
	st.lineMask = ^uint32(lineBytes - 1)
	st.lineBytes = uint32(lineBytes)
	st.cov = [4]covRange{}
	st.covIdx = 0
	st.cycleRatios = ratios(st.cycleRatios, hint)
	if cap(st.lanes) < len(cfgs) {
		st.lanes = append(st.lanes[:cap(st.lanes)], make([]sampleLane, len(cfgs)-cap(st.lanes))...)
	}
	st.lanes = st.lanes[:len(cfgs)]
	for i := range st.lanes {
		st.lanes[i] = sampleLane{cfg: cfgs[i], energyRatios: ratios(st.lanes[i].energyRatios, hint)}
	}
	return st
}

// ratios returns s emptied, with capacity of at least hint.
func ratios(s []float64, hint int) []float64 {
	if cap(s) < hint {
		return make([]float64, 0, hint)
	}
	return s[:0]
}

// release returns the state to the pool. Cache and meter references
// are dropped so a pooled state never pins a dead run's arrays.
func (st *sampleState) release() {
	for i := range st.lanes {
		st.lanes[i] = sampleLane{energyRatios: st.lanes[i].energyRatios}
	}
	samplePool.Put(st)
}

// warm is the fast-forward's fetch witness: functional cache warming.
// Fast-forwarded code still touches its I-cache lines (without charging
// time or energy), so each measured window opens on the cache contents
// the exact run would have. Every live lane's cache receives the touches
// a solo run of its configuration would make. The snapshots bracketing
// windows make the warming traffic itself invisible to the estimator.
func (st *sampleState) warm(lo, hi uint32) {
	for _, r := range st.cov {
		if lo >= r.lo && hi <= r.hi {
			return
		}
	}
	l := lo & st.lineMask
	for i := range st.lanes {
		ln := &st.lanes[i]
		if !ln.live() {
			continue
		}
		for a := l; a < hi; a += st.lineBytes {
			ln.c.Access(a)
		}
	}
	st.cov[st.covIdx] = covRange{l, hi}
	st.covIdx = (st.covIdx + 1) & 3
}

func (st *sampleState) resetWarm() {
	st.cov = [4]covRange{}
}

// RunSampled executes the prepared kernel under one configuration with
// sampled timing: the whole instruction stream runs functionally (so
// outputs and instruction counts are exact), but only a detailed head
// plus periodic warmup+measure windows pass through the cycle-accurate
// pipeline. Cycles, stalls, cache and energy totals are extrapolated
// with the ratio estimator described in DESIGN.md §11, and the Result
// carries a SampleStats with the window count and 95 % confidence
// intervals. Runs that halt before MinWindows windows fall back to an
// exact full simulation.
//
// RunSampled is RunWith with only Sample set. Like Run, it is safe to
// call concurrently on one Setup.
func (s *Setup) RunSampled(cfg Config, cal power.Calibration, opt SampleOptions) (*Result, error) {
	var out [1]*Result
	if err := s.runSampled([]Config{cfg}, out[:], cal, opt, nil); err != nil {
		return nil, err
	}
	return out[0], nil
}

// runSampled is the one sampled body. It stores the result of cfgs[i]
// in out[i]. cfgs[0] drives the cycle loop; every further configuration
// (same ISA and line size, and only without a sink) follows it in
// lockstep as runExact's followers do: its cache and meter ride the
// lead's fetch port through the head, warmup and window segments, its
// cache takes the fast-forward's warming touches, and its snapshots,
// window sums and estimate are its own. The slot of a follower that
// diverged stays nil.
//
// With a sink attached, the detailed segments stream the same pipeline
// events a traced full run would, the functional fast-forwards emit one
// KindSuperblock event per executed batch, and every sampling boundary
// (head end, warmup start, measure start/end) emits a KindWindow event,
// so a consumer can tell measured cycles from extrapolated ones. When
// the run halts before MinWindows measured windows, the fallback exact
// simulation is traced too (its events follow the aborted sampled
// prefix's in the same sink, with a fresh meter bound for energy
// attribution).
func (s *Setup) runSampled(cfgs []Config, out []*Result, cal power.Calibration, opt SampleOptions, sink tracing.EventSink) error {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return err
	}
	lead := cfgs[0]
	prog, im, dec, comp := s.target(lead)
	c, err := cache.New(lead.Cache)
	if err != nil {
		return err
	}
	meter, err := power.NewMeter(lead.Cache, cal)
	if err != nil {
		return err
	}
	fs, err := newFollowers(cfgs[1:], cal)
	if err != nil {
		return err
	}
	bindEnergy(sink, meter)
	pc := cpu.DefaultPipeConfig()
	m := cpu.New(prog, cpu.ImageLayout(im))
	port := newICachePort(c, meter, im, pc.BlockBytes)
	port.followers = slices.Clone(fs)

	var pres cpu.PipeResult
	run, err := cpu.NewPipelineRun(m, pc, port, dec, &pres, sink)
	if err != nil {
		return fmt.Errorf("sim: %s on %s (sampled): %w", s.Kernel.Name, lead.Name, err)
	}
	wrap := func(err error) error {
		return fmt.Errorf("sim: %s on %s (sampled): %w", s.Kernel.Name, lead.Name, err)
	}
	boundary := func(code uint8) {
		if sink != nil {
			sink.Emit(tracing.Event{Cycle: run.Cycles(), PC: 0,
				Payload: uint32(m.InstrCount), Kind: tracing.KindWindow, Cause: code})
		}
	}

	// Pooled per-run scratch: the warm-cover memo, the lanes and the
	// ratio series, the latter sized from the profiled dynamic
	// instruction count (a hint — the FITS stream may run slightly
	// longer or shorter than the profiled ARM one). The deferred
	// release runs after the estimates below have consumed the series.
	hint := int(s.Profile.TotalDyn/opt.PeriodInstrs) + 4
	st := newSampleState(cfgs, lead.Cache.LineBytes, hint)
	defer st.release()
	lanes := st.lanes
	lanes[0].c, lanes[0].m = c, meter
	for i, f := range fs {
		lanes[i+1].c, lanes[i+1].m, lanes[i+1].f = f.c, f.m, f
	}

	// Detailed head: the cold-start behaviour is measured exactly.
	if err := run.RunUntil(opt.HeadInstrs); err != nil {
		return wrap(err)
	}
	for i := range lanes {
		lanes[i].head = lanes[i].snap(&pres, m)
	}
	boundary(tracing.WindowHead)

	ff := opt.PeriodInstrs - opt.WarmupInstrs - opt.WindowInstrs
	warm := st.warm // bind the method value once, not per fast-forward
	detailed := m.InstrCount
	var sampled uint64 // instructions inside measured windows
	for !m.Halted {
		// Functional fast-forward on the superblock executor: the
		// architectural state (and Output) advances exactly; the meters
		// stand still and the caches see only warming touches.
		st.resetWarm()
		if err := m.RunSuperblocksN(comp, ff, warm, sink); err != nil {
			return wrap(err)
		}
		if m.Halted {
			break
		}
		if err := run.Resync(); err != nil {
			return wrap(err)
		}
		// Detailed but unmeasured warmup: re-warms the fetch window,
		// interlocks and caches before measurement resumes.
		boundary(tracing.WindowWarmup)
		preWarm := m.InstrCount
		if err := run.RunUntil(preWarm + opt.WarmupInstrs); err != nil {
			return wrap(err)
		}
		detailed += m.InstrCount - preWarm
		if m.Halted {
			break
		}
		// Measured window.
		boundary(tracing.WindowMeasure)
		for i := range lanes {
			lanes[i].w0 = lanes[i].snap(&pres, m)
		}
		w0 := m.InstrCount
		if err := run.RunUntil(w0 + opt.WindowInstrs); err != nil {
			return wrap(err)
		}
		boundary(tracing.WindowEnd)
		n := m.InstrCount - w0
		detailed += n
		if n == 0 {
			continue
		}
		sampled += n
		// The per-window ratios feeding the variance estimate exclude
		// miss stalls: miss totals come from the warmed cache's actual
		// count, not from window extrapolation (see estimate). Every
		// live lane saw the lead's cycles, so the cycle ratio is shared.
		var d sampleSnap
		for i := range lanes {
			ln := &lanes[i]
			if !ln.live() {
				continue
			}
			d = ln.snap(&pres, m).sub(ln.w0)
			ln.wsum.add(d)
			ln.energyRatios = append(ln.energyRatios, (d.swPJ+d.inPJ+d.lkPJ)/float64(n))
		}
		st.cycleRatios = append(st.cycleRatios, float64(d.pipe.Cycles-d.pipe.FetchStalls)/float64(n))
	}

	total := m.InstrCount
	windows := len(st.cycleRatios)
	if windows < opt.MinWindows {
		if sampled == 0 && detailed == total {
			// The program halted inside the detailed head: this run IS
			// the exact simulation of every live lane — no rerun needed.
			for i := range lanes {
				ln := &lanes[i]
				if !ln.live() {
					continue
				}
				pipe := &pres
				if i > 0 {
					cp := pres
					cp.Output = slices.Clone(pres.Output)
					pipe = &cp
				}
				out[i] = &Result{Config: ln.cfg, Pipe: pipe, Cache: ln.c.Stats(),
					Power: ln.m.Report(), AccessPJ: ln.m.AccessPJ(),
					Sampled: &SampleStats{TotalInstrs: total, DetailedInstrs: total, Exact: true}}
			}
			return nil
		}
		// Too short to estimate: fall back to the exact full pipeline
		// over the live lanes (traced when a sink is attached, so the
		// event stream and any bound energy attribution follow the run
		// that produced the result).
		var idx []int
		var live []Config
		for i := range lanes {
			if lanes[i].live() {
				idx = append(idx, i)
				live = append(live, lanes[i].cfg)
			}
		}
		rs, err := s.RunConfigs(live, cal, RunOptions{Sink: sink})
		if err != nil {
			return err
		}
		for k, r := range rs {
			r.Sampled = &SampleStats{
				Windows:        windows,
				TotalInstrs:    r.Pipe.Instrs,
				DetailedInstrs: r.Pipe.Instrs,
				Exact:          true,
			}
			out[idx[k]] = r
		}
		return nil
	}

	for i := range lanes {
		ln := &lanes[i]
		if !ln.live() {
			continue
		}
		output := m.Output
		if i > 0 {
			output = slices.Clone(output)
		}
		out[i] = estimate(ln, cal, total, detailed, st.cycleRatios, output)
	}
	return nil
}

// estimate forms one lane's sampled result from its head snapshot,
// window sums and warmed cache, for a run of total instructions of
// which detailed were simulated cycle-accurately.
//
// The estimate splits into a transient and a stationary part.
//
// Misses are transient: compulsory first-touches land wherever the
// program first reaches code, not at a steady per-instruction rate, so
// extrapolating window miss rates is badly biased in either direction.
// Instead, the warmed cache has seen (at line granularity) the whole
// run's fetch stream — head, fast-forwards, warmups and windows alike —
// so its own cumulative miss count IS the miss estimate, and stalls
// follow as misses × MissPenalty.
//
// Everything else (issue behaviour, hazards, branches, accesses) is
// stationary per instruction and uses the ratio estimator:
// total_q = head_q + (Σ window Δq / Σ window Δinstrs) × tail.
func estimate(ln *sampleLane, cal power.Calibration, total, detailed uint64, cycleRatios []float64, output []uint32) *Result {
	head, wsum := &ln.head, &ln.wsum
	tail := float64(total - head.instrs)
	wi := float64(wsum.instrs)
	est := func(headQ uint64, sumQ uint64) uint64 {
		return headQ + uint64(math.Round(float64(sumQ)/wi*tail))
	}
	estMiss := ln.c.Stats().Misses
	estStalls := uint64(MissPenalty) * estMiss
	nmCycles := est(head.pipe.Cycles-head.pipe.FetchStalls, wsum.pipe.Cycles-wsum.pipe.FetchStalls)
	estCycles := nmCycles + estStalls
	estAcc := est(head.pipe.FetchAccesses, wsum.pipe.FetchAccesses)

	// Zero-issue miss cycles scale with the stall count at the ratio the
	// detailed segments observed.
	detStalls := head.pipe.FetchStalls + wsum.pipe.FetchStalls
	var estZMiss uint64
	if detStalls > 0 {
		zm := float64(head.pipe.ZeroIssueMiss+wsum.pipe.ZeroIssueMiss) / float64(detStalls)
		estZMiss = uint64(math.Round(zm * float64(estStalls)))
	}

	pipe := &cpu.PipeResult{
		Cycles:          estCycles,
		Instrs:          total,
		FetchAccesses:   estAcc,
		FetchStalls:     estStalls,
		Bubbles:         est(head.pipe.Bubbles, wsum.pipe.Bubbles),
		Branches:        est(head.pipe.Branches, wsum.pipe.Branches),
		Taken:           est(head.pipe.Taken, wsum.pipe.Taken),
		Mispredicts:     est(head.pipe.Mispredicts, wsum.pipe.Mispredicts),
		ZeroIssueMiss:   estZMiss,
		ZeroIssueBubble: est(head.pipe.ZeroIssueBubble, wsum.pipe.ZeroIssueBubble),
		ZeroIssueFetch:  est(head.pipe.ZeroIssueFetch, wsum.pipe.ZeroIssueFetch),
		ZeroIssueHazard: est(head.pipe.ZeroIssueHazard, wsum.pipe.ZeroIssueHazard),
		DualIssueCycles: est(head.pipe.DualIssueCycles, wsum.pipe.DualIssueCycles),
		Output:          output,
	}
	stats := cache.Stats{Accesses: estAcc, Misses: estMiss}

	// Energy mirrors the meter's exactly linear structure: switching is
	// per access, internal is per cycle plus a line fill per miss, and
	// leakage is per cycle. The rates come from the detailed segments
	// (where they are measured, not assumed) and apply to the estimated
	// counts, so the only approximation left is in the counts
	// themselves.
	fillPJ := cal.FillPJPerBit * float64(ln.cfg.Cache.LineBytes*8)
	detCyc := float64(head.pipe.Cycles + wsum.pipe.Cycles)
	detAcc := float64(head.pipe.FetchAccesses + wsum.pipe.FetchAccesses)
	detMiss := float64(head.miss + wsum.miss)
	var estSw, estIn, estLk float64
	if detAcc > 0 {
		estSw = (head.swPJ + wsum.swPJ) / detAcc * float64(estAcc)
	}
	if detCyc > 0 {
		estIn = (head.inPJ+wsum.inPJ-fillPJ*detMiss)/detCyc*float64(estCycles) + fillPJ*float64(estMiss)
		estLk = (head.lkPJ + wsum.lkPJ) / detCyc * float64(estCycles)
	}

	detailedRep := ln.m.Report()
	rep := power.Report{
		SwitchingPJ: estSw,
		InternalPJ:  estIn,
		LeakagePJ:   estLk,
		Cycles:      estCycles,
		Accesses:    estAcc,
		Misses:      estMiss,
		// Peak power is a max, not a mean: the detailed windows' peak is
		// the best available observation (an underestimate if the true
		// peak falls in a skipped region — documented in DESIGN.md §11).
		PeakPowerW: detailedRep.PeakPowerW,
		FreqHz:     detailedRep.FreqHz,
	}

	ss := &SampleStats{
		Windows:        len(cycleRatios),
		TotalInstrs:    total,
		DetailedInstrs: detailed,
		SampledInstrs:  wsum.instrs,
		CycleRelCI:     relCI(cycleRatios, float64(wsum.pipe.Cycles-wsum.pipe.FetchStalls)/wi, tail, float64(estCycles)),
		EnergyRelCI:    relCI(ln.energyRatios, (wsum.swPJ+wsum.inPJ+wsum.lkPJ)/wi, tail, rep.TotalPJ()),
	}
	return &Result{Config: ln.cfg, Pipe: pipe, Cache: stats, Power: rep, Sampled: ss,
		AccessPJ: ln.m.AccessPJ()}
}

// relCI returns the half-width of the 95 % confidence interval on an
// extrapolated total, relative to the estimate: the sample standard
// deviation of the per-window ratios around the pooled ratio, scaled by
// √windows and the extrapolated tail length.
func relCI(ratios []float64, pooled, tail, estTotal float64) float64 {
	if len(ratios) < 2 || estTotal <= 0 {
		return 0
	}
	var ss float64
	for _, r := range ratios {
		d := r - pooled
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(ratios)-1))
	return 1.96 * sd / math.Sqrt(float64(len(ratios))) * tail / estTotal
}
