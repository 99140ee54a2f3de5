// Package sim wires the pieces into the paper's experimental setup:
// for one kernel it prepares the ARM baseline image, the profile, the
// synthesized FITS ISA and translation, and the Thumb sizing; it then
// runs any of the four simulated processor configurations (ARM16, ARM8,
// FITS16, FITS8 — ISA × I-cache size on the fixed SA-1100-class core)
// through the timing pipeline with the cache and power models attached.
package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"powerfits/internal/cache"
	"powerfits/internal/cpu"
	"powerfits/internal/isa/thumb"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/program"
	"powerfits/internal/synth"
	"powerfits/internal/tracing"
	"powerfits/internal/translate"

	"powerfits/internal/isa/arm"
)

// ISA selects the instruction encoding a configuration runs.
type ISA int

const (
	ISAARM ISA = iota
	ISAFITS
)

func (i ISA) String() string {
	if i == ISAFITS {
		return "FITS"
	}
	return "ARM"
}

// Config is one simulated processor configuration.
type Config struct {
	Name  string
	ISA   ISA
	Cache cache.Config
}

// The paper's four configurations.
var (
	ARM16  = Config{Name: "ARM16", ISA: ISAARM, Cache: cache.SA1100ICache()}
	ARM8   = Config{Name: "ARM8", ISA: ISAARM, Cache: cache.SA1100ICacheHalf()}
	FITS16 = Config{Name: "FITS16", ISA: ISAFITS, Cache: cache.SA1100ICache()}
	FITS8  = Config{Name: "FITS8", ISA: ISAFITS, Cache: cache.SA1100ICacheHalf()}
)

// Configs lists the four configurations in the paper's order.
var Configs = []Config{ARM16, ARM8, FITS16, FITS8}

// MissPenalty is the I-cache miss stall in cycles (SA-1100-class
// memory latency at 200 MHz).
const MissPenalty = 24

// Setup holds everything derived from one kernel before timing runs.
//
// A Setup is immutable once Prepare returns: Run only reads it, so one
// Setup may serve any number of concurrent Run calls (the parallel
// experiment engine relies on this). Each Run builds its own cache,
// power meter, layout and machine; the shared Program and Images are
// treated as read-only by the pipeline.
type Setup struct {
	Kernel kernels.Kernel
	Scale  int

	Prog     *program.Program
	ArmImage *program.Image
	Profile  *profile.Profile
	Synth    *synth.Synthesis
	Fits     *translate.Result
	Thumb    *thumb.Sizing

	// ArmDecoded and FitsDecoded are the predecoded static-instruction
	// tables (cpu.Predecode) for the two target images. They are built
	// once in Prepare and shared read-only by every configuration run
	// and engine worker, so the timing pipeline never re-derives
	// per-instruction metadata per cycle.
	ArmDecoded  *cpu.Decoded
	FitsDecoded *cpu.Decoded

	// ArmCompiled and FitsCompiled are the semantic micro-op tables
	// (cpu.Compile) built alongside the decoded tables — the execute
	// stage's counterpart to the timing predecode, likewise shared
	// read-only across configurations and engine workers.
	ArmCompiled  *cpu.Compiled
	FitsCompiled *cpu.Compiled
}

// PrepareOptions extends Prepare beyond the synthesis options.
type PrepareOptions struct {
	// Synth parameterises the ISA synthesis stage.
	Synth synth.Options
	// Profiles, when non-nil, memoizes the profiling stage: the run is
	// keyed by a content hash of the program (ARM text, load addresses,
	// data segment, entry point) plus the effective profile budget, so
	// repeated preparations of the same program — thousands of
	// synthesis points in a design-space sweep — share one
	// profile.Collect.
	Profiles *profile.Cache
	// Log, when non-nil, receives one Debug record per preparation with
	// the wall-clock cost of every stage (build, assemble, profile,
	// synth, translate, thumb, predecode). The produced Setup is
	// identical with or without logging.
	Log *slog.Logger
}

// Prepare builds, profiles, synthesizes and translates one kernel.
// scale ≤ 0 selects the kernel's default scale.
func Prepare(k kernels.Kernel, scale int, opts synth.Options) (*Setup, error) {
	return PrepareWith(k, scale, PrepareOptions{Synth: opts})
}

// PrepareWith is Prepare with full options.
func PrepareWith(k kernels.Kernel, scale int, popts PrepareOptions) (*Setup, error) {
	opts := popts.Synth
	if scale <= 0 {
		scale = k.DefaultScale
	}
	// stage records per-stage wall-clock when logging is requested; with
	// Log nil it degenerates to two time.Now calls per stage and no
	// allocation beyond the fixed slice.
	var stages []slog.Attr
	last := time.Now()
	stage := func(name string) {
		if popts.Log == nil {
			return
		}
		now := time.Now()
		stages = append(stages, slog.Float64(name+"_sec", now.Sub(last).Seconds()))
		last = now
	}
	p := k.Build(scale)
	stage("build")
	armIm, err := arm.Assemble(p)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", k.Name, err)
	}
	stage("assemble")
	budget, err := opts.EffectiveProfileBudget()
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w", k.Name, err)
	}
	prof, err := popts.Profiles.Collect(profileKey(p, armIm, budget), func() (*profile.Profile, error) {
		return profile.Collect(p, budget)
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %s: profile: %w", k.Name, err)
	}
	stage("profile")
	syn, err := synth.Synthesize(prof, opts)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: synth: %w", k.Name, err)
	}
	stage("synth")
	res, err := translate.Translate(p, syn.Spec)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: translate: %w", k.Name, err)
	}
	stage("translate")
	ts, err := thumb.Translate(p)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: thumb: %w", k.Name, err)
	}
	stage("thumb")
	armDec := cpu.Predecode(p, cpu.ImageLayout(armIm))
	fitsDec := cpu.Predecode(res.Lowered, cpu.ImageLayout(res.Image))
	s := &Setup{Kernel: k, Scale: scale, Prog: p, ArmImage: armIm,
		Profile: prof, Synth: syn, Fits: res, Thumb: ts,
		ArmDecoded: armDec, FitsDecoded: fitsDec,
		ArmCompiled: armDec.Compiled(), FitsCompiled: fitsDec.Compiled(),
	}
	if popts.Log != nil {
		stage("predecode")
		popts.Log.LogAttrs(context.Background(), slog.LevelDebug, "prepare stages",
			append([]slog.Attr{slog.String("kernel", k.Name), slog.Int("scale", scale)}, stages...)...)
	}
	return s, nil
}

// profileKey derives the memoization key of the profiling stage: a
// content hash over everything the functional run can observe — the
// bit-accurate ARM encoding of every instruction, the load addresses,
// the data segment and the entry point — plus the effective budget.
// Two programs with the same key produce bit-identical profiles, so a
// cached Profile may be shared even though it references the program
// object of whichever preparation ran first.
func profileKey(p *program.Program, armIm *program.Image, budget uint64) profile.CacheKey {
	var meta [28]byte
	binary.LittleEndian.PutUint32(meta[0:], armIm.TextBase)
	binary.LittleEndian.PutUint32(meta[4:], p.TextBase)
	binary.LittleEndian.PutUint32(meta[8:], p.DataBase)
	binary.LittleEndian.PutUint64(meta[12:], uint64(p.Entry))
	binary.LittleEndian.PutUint64(meta[20:], budget)
	return profile.CacheKey{
		Image:  metrics.HashConfig(armIm.Text, p.Data, meta[:]),
		Budget: budget,
	}
}

// PrepareByName is Prepare for a kernel name with default options.
func PrepareByName(name string, scale int) (*Setup, error) {
	k, err := kernels.Get(name)
	if err != nil {
		return nil, err
	}
	return Prepare(k, scale, synth.DefaultOptions())
}

// Result is the outcome of one configuration's timing run.
type Result struct {
	Config Config
	Pipe   *cpu.PipeResult
	Cache  cache.Stats
	Power  power.Report

	// Phases is the phase-resolved telemetry of a run with a positive
	// RunOptions.Window; nil otherwise.
	Phases *metrics.Series

	// Sampled describes the sampling estimator behind the result when
	// it came from a sampled run; nil for exact (full-pipeline) runs.
	Sampled *SampleStats

	// AccessPJ is the power meter's exact running sum of per-access
	// fetch energies in access order (power.Meter.AccessPJ), covering
	// every access the run simulated in detail. It is the conservation
	// anchor of the tracing profiler: a profiler attached to the run
	// reports TotalPJ() equal to this value bit-for-bit.
	AccessPJ float64

	// Run describes the timing run that produced the result.
	Run RunInfo
}

// RunInfo describes the timing run behind a Result. Every result of
// one lockstep run (see RunConfigs) carries the same Sec; exactly one
// of them, the configuration that drove the cycle loop, is the Lead.
type RunInfo struct {
	// Sec is the run's wall-clock duration in seconds.
	Sec float64
	// Lead marks the configuration that drove the run; false for a
	// follower whose numbers came from another configuration's run.
	Lead bool
	// Rerun marks a solo run repeated because the configuration's
	// I-cache hit/miss sequence diverged from its lockstep primary's.
	Rerun bool
}

// target resolves the configuration's ISA to its program, image and
// shared predecode/compile tables, predecoding per run for Setups
// constructed outside Prepare (tests, literals) — still once per run
// rather than once per cycle.
func (s *Setup) target(cfg Config) (prog *program.Program, im *program.Image, dec *cpu.Decoded, comp *cpu.Compiled) {
	switch cfg.ISA {
	case ISAARM:
		prog, im, dec, comp = s.Prog, s.ArmImage, s.ArmDecoded, s.ArmCompiled
	case ISAFITS:
		prog, im, dec, comp = s.Fits.Lowered, s.Fits.Image, s.FitsDecoded, s.FitsCompiled
	}
	if dec == nil {
		dec = cpu.Predecode(prog, cpu.ImageLayout(im))
	}
	if comp == nil {
		comp = dec.Compiled()
	}
	return prog, im, dec, comp
}

// icachePort implements cpu.FetchPort over the cache and power models.
// A port is owned by exactly one pipeline run (it is not safe for
// concurrent use). The fetch path is allocation-free in the steady
// state: blocks fully inside the text segment alias the image directly,
// and blocks straddling the bounds reuse a per-port scratch buffer.
// The port carries no instrumentation: observation happens in the
// cycle loop's event sink (asserted allocation-free by
// BenchmarkFetchPort and TestFetchPortNoAllocs).
type icachePort struct {
	c        *cache.Cache
	m        *power.Meter
	text     []byte
	textBase uint32
	block    int
	buf      []byte // scratch for blocks straddling the text bounds

	// followers are the further cache geometries of a lockstep run
	// (RunConfigs): each sees every fetch and tick the primary sees
	// until its hit/miss outcome first differs from the primary's, when
	// the port drops it.
	followers []*follower
}

// follower is one cache and meter a lockstep port drives next to its
// primary pair.
type follower struct {
	c        *cache.Cache
	m        *power.Meter
	diverged bool // dropped at its first hit/miss mismatch
}

// newFollowers builds a follower cache and meter for each of cfgs.
func newFollowers(cfgs []Config, cal power.Calibration) ([]*follower, error) {
	fs := make([]*follower, len(cfgs))
	for i, cfg := range cfgs {
		f := &follower{}
		var err error
		if f.c, err = cache.New(cfg.Cache); err != nil {
			return nil, err
		}
		if f.m, err = power.NewMeter(cfg.Cache, cal); err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return fs, nil
}

func newICachePort(c *cache.Cache, m *power.Meter, im *program.Image, blockBytes int) *icachePort {
	return &icachePort{c: c, m: m, text: im.Text, textBase: im.TextBase,
		block: blockBytes, buf: make([]byte, blockBytes)}
}

// NewFetchPort returns the simulator's I-cache fetch port — the cache
// lookup plus power accrual behind every instruction fetch — for use by
// benchmarks and custom pipelines. The port must not be shared across
// concurrent pipeline runs.
func NewFetchPort(c *cache.Cache, m *power.Meter, im *program.Image, blockBytes int) cpu.FetchPort {
	return newICachePort(c, m, im, blockBytes)
}

func (p *icachePort) FetchBlock(addr uint32) int {
	hit := p.c.Access(addr)
	off := int64(addr) - int64(p.textBase)
	blk := p.buf
	if off >= 0 && off+int64(p.block) <= int64(len(p.text)) {
		blk = p.text[off : off+int64(p.block)]
	} else {
		for i := range blk {
			b := byte(0)
			if o := off + int64(i); o >= 0 && o < int64(len(p.text)) {
				b = p.text[o]
			}
			blk[i] = b
		}
	}
	p.m.Access(addr, blk, !hit)
	if len(p.followers) != 0 {
		p.follow(addr, blk, hit)
	}
	if hit {
		return 0
	}
	return MissPenalty
}

// follow replays one fetch on every follower, dropping each whose
// lookup disagrees with the primary's hit.
func (p *icachePort) follow(addr uint32, blk []byte, hit bool) {
	for i := 0; i < len(p.followers); {
		f := p.followers[i]
		if f.c.Access(addr) != hit {
			f.diverged = true
			p.followers = append(p.followers[:i], p.followers[i+1:]...)
			continue
		}
		f.m.Access(addr, blk, !hit)
		i++
	}
}

func (p *icachePort) Tick() {
	p.m.Tick()
	for _, f := range p.followers {
		f.m.Tick()
	}
}

// RunOptions selects how Setup.RunWith and Setup.RunConfigs simulate.
// The zero value is the exact, unobserved run.
type RunOptions struct {
	// Sample, when non-nil, replaces the exact cycle-accurate run with
	// the sampled estimator under these options (see RunSampled).
	Sample *SampleOptions
	// Sink, when non-nil, receives the run's event stream (see
	// tracing.EventSink). A sink that attributes energy
	// (tracing.Profiler) is bound to the run's power meter before the
	// first cycle, and the Result's AccessPJ anchors its conservation
	// check. The result is bit-identical with or without a sink.
	Sink tracing.EventSink
	// Window, when positive, records the run's phase series in windows
	// of that many cycles plus its fetch-energy hotspot map
	// (Result.Phases). It requires an exact run without a Sink.
	Window int
}

func (opt RunOptions) check() error {
	switch {
	case opt.Window < 0:
		return fmt.Errorf("sim: negative phase window %d", opt.Window)
	case opt.Window > 0 && opt.Sample != nil:
		return fmt.Errorf("sim: a phase window requires an exact run, not a sampled one")
	case opt.Window > 0 && opt.Sink != nil:
		return fmt.Errorf("sim: a phase window cannot be combined with an event sink")
	}
	return nil
}

// Run executes the prepared kernel under one configuration on the
// exact timing model. It is safe to call concurrently on the same
// Setup: every piece of mutable state (cache, meter, layout index,
// machine) is created per call.
func (s *Setup) Run(cfg Config, cal power.Calibration) (*Result, error) {
	return s.RunWith(cfg, cal, RunOptions{})
}

// RunWith executes the prepared kernel under one configuration as opt
// selects: exact or sampled, traced or not, with or without a phase
// series. Architectural and aggregate results do not depend on the Sink
// or the Window. It is RunConfigs for one configuration and, like Run,
// safe to call concurrently on one Setup.
func (s *Setup) RunWith(cfg Config, cal power.Calibration, opt RunOptions) (*Result, error) {
	rs, err := s.RunConfigs([]Config{cfg}, cal, opt)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunConfigs executes the prepared kernel under every configuration of
// cfgs as opt selects and returns the results in cfgs order, each
// bit-identical to what RunWith returns for that configuration alone.
//
// Runs without a Sink or Window share timing runs: the configurations
// of one ISA run one image, so the first of them drives the cycle loop
// while the others' caches and meters follow its fetch port in
// lockstep. The cycle loop reads nothing from the port but the stall,
// so as long as a follower's hit/miss outcome matches the primary's at
// every access, its cache and meter receive exactly the calls a solo
// run would make. A follower whose outcome differs is dropped at that
// access and re-run alone (Result.Run.Rerun). A sampled group also
// needs one line size, because its fast-forward's warming touches are
// the same line walk for every cache only then. Traced and windowed
// runs go one configuration at a time. Like Run, RunConfigs is safe to
// call concurrently on one Setup.
func (s *Setup) RunConfigs(cfgs []Config, cal power.Calibration, opt RunOptions) ([]*Result, error) {
	if err := opt.check(); err != nil {
		return nil, err
	}
	lockstep := opt.Sink == nil && opt.Window == 0
	out := make([]*Result, len(cfgs))
	// run times one timing run over the configurations at idx and
	// stores its results; a diverged follower's slot stays nil.
	run := func(idx []int) error {
		group := make([]Config, len(idx))
		for k, i := range idx {
			group[k] = cfgs[i]
		}
		t0 := time.Now()
		var rs []*Result
		var err error
		if opt.Sample != nil {
			rs = make([]*Result, len(group))
			err = s.runSampled(group, rs, cal, *opt.Sample, opt.Sink)
		} else {
			rs, err = s.runExact(group, cal, opt)
		}
		if err != nil {
			return err
		}
		sec := time.Since(t0).Seconds()
		for k, r := range rs {
			if r != nil {
				r.Run = RunInfo{Sec: sec, Lead: k == 0}
				out[idx[k]] = r
			}
		}
		return nil
	}
	grouped := make([]bool, len(cfgs))
	for i := range cfgs {
		if grouped[i] {
			continue
		}
		idx := []int{i}
		for j := i + 1; lockstep && j < len(cfgs); j++ {
			if cfgs[j].ISA == cfgs[i].ISA &&
				(opt.Sample == nil || cfgs[j].Cache.LineBytes == cfgs[i].Cache.LineBytes) {
				idx = append(idx, j)
				grouped[j] = true
			}
		}
		if err := run(idx); err != nil {
			return nil, err
		}
	}
	for i, r := range out {
		if r != nil {
			continue
		}
		if err := run([]int{i}); err != nil {
			return nil, err
		}
		out[i].Run.Rerun = true
	}
	return out, nil
}

// runExact is the one exact-run body. cfgs[0] drives the cycle loop;
// every further configuration (same ISA, and only when opt has no Sink
// or Window) follows it in lockstep. The result of a follower that
// diverged is nil.
func (s *Setup) runExact(cfgs []Config, cal power.Calibration, opt RunOptions) ([]*Result, error) {
	lead := cfgs[0]
	prog, im, dec, _ := s.target(lead)
	c, err := cache.New(lead.Cache)
	if err != nil {
		return nil, err
	}
	meter, err := power.NewMeter(lead.Cache, cal)
	if err != nil {
		return nil, err
	}
	fs, err := newFollowers(cfgs[1:], cal)
	if err != nil {
		return nil, err
	}
	pc := cpu.DefaultPipeConfig()
	port := newICachePort(c, meter, im, pc.BlockBytes)
	// The port drops diverged followers from its own copy; fs keeps
	// every follower for collecting the results.
	port.followers = slices.Clone(fs)
	m := cpu.New(prog, cpu.ImageLayout(im))
	var pres cpu.PipeResult
	var phases *metrics.Series
	if opt.Window > 0 {
		phases, err = runWindows(m, pc, port, dec, &pres, c, meter, im, opt.Window)
	} else {
		bindEnergy(opt.Sink, meter)
		err = cpu.RunPipelineInto(m, pc, port, dec, &pres, opt.Sink)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %s on %s: %w", s.Kernel.Name, lead.Name, err)
	}
	out := make([]*Result, len(cfgs))
	out[0] = &Result{Config: lead, Pipe: &pres, Cache: c.Stats(), Power: meter.Report(),
		Phases: phases, AccessPJ: meter.AccessPJ()}
	for i, f := range fs {
		if f.diverged {
			continue
		}
		pipe := pres
		pipe.Output = slices.Clone(pres.Output)
		out[i+1] = &Result{Config: cfgs[i+1], Pipe: &pipe, Cache: f.c.Stats(), Power: f.m.Report(),
			AccessPJ: f.m.AccessPJ()}
	}
	return out, nil
}
