package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"powerfits/internal/archive"
	"powerfits/internal/experiments"
	"powerfits/internal/isa/arm"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// paper_suite: experiments.RunSuite over 21 kernels × 4 configurations
// at each kernel's default scale, exact pipeline, 2 workers — the run a
// paper reproducer waits for. The warm path re-reads the archived
// record of the last suite and diffs it against the live one, as the
// regression gate (powerfits diff) does.

const suiteRuns = 21 * 4

// refs holds each kernel's reference output at one scale.
type refs map[string][]uint32

// buildRefs is the suite's set-up: every kernel built and assembled at
// its scale (≤ 0 = default) and its independent Go reference computed —
// the oracle the output gate compares every run against.
func buildRefs(scale int) (refs, error) {
	out := refs{}
	for _, k := range kernels.All() {
		s := scale
		if s <= 0 {
			s = k.DefaultScale
		}
		if _, err := arm.Assemble(k.Build(s)); err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		out[k.Name] = k.Ref(s)
	}
	return out, nil
}

// suiteDigests returns the digest of every simulated statistic of the
// suite and the digest of its rendered figure tables, and gates every
// run's and profile's output against the references.
func suiteDigests(o *outcome, s *experiments.Suite, want refs) (stats, tables string) {
	d := newDigest()
	for _, st := range s.Setups {
		name := st.Kernel.Name
		if !slices.Equal(st.Profile.Output, want[name]) {
			o.gate("%s: profile output differs from the reference", name)
		}
		for _, cfg := range sim.Configs {
			r := s.Results[name][cfg.Name]
			if r == nil {
				o.gate("%s/%s: no result", name, cfg.Name)
				continue
			}
			if !slices.Equal(r.Pipe.Output, want[name]) {
				o.gate("%s/%s: output differs from the reference", name, cfg.Name)
			}
			d.str(name + "/" + cfg.Name)
			hashResult(d, r)
		}
	}
	var buf bytes.Buffer
	for _, t := range s.AllFigures() {
		t.Render(&buf)
	}
	return d.sum(), newDigestOf(buf.Bytes())
}

func newDigestOf(b []byte) string {
	d := newDigest()
	d.str(string(b))
	return d.sum()
}

// gateSuite checks a suite against the references and the recorded
// goldens and returns its digests.
func gateSuite(o *outcome, s *experiments.Suite, want refs) (stats, tables string) {
	stats, tables = suiteDigests(o, s, want)
	if stats != golden.SuiteStats {
		o.gate("suite statistics digest %s, recorded %s", stats, golden.SuiteStats)
	}
	if tables != golden.SuiteTables {
		o.gate("suite figure tables digest %s, recorded %s", tables, golden.SuiteTables)
	}
	return stats, tables
}

func runSuite(e *env) (*outcome, error) {
	o := newOutcome()
	var want refs
	setup, err := medianSetup(setupRepeats, func() error { return nil },
		func() (err error) { want, err = buildRefs(0); return err })
	if err != nil {
		return nil, err
	}
	o.set("setup_s", setup)

	// Cold passes fill 90 % of the budget; the warm path the rest.
	t0 := time.Now()
	coldBudget := time.Duration(0.9 * float64(e.budget))
	var walls []float64
	kernelMs := kernelTimes{}
	var last *experiments.Suite
	for len(walls) == 0 || time.Since(t0)+time.Duration(median(walls)*1e9) <= coldBudget {
		var s *experiments.Suite
		runtime.GC()
		wall, err := timed(func() (err error) {
			s, err = experiments.RunSuite(experiments.Options{Workers: workers})
			return err
		})
		o.attempted += suiteRuns
		if err != nil {
			o.failed += suiteRuns
			o.gate("suite: %v", err)
			break
		}
		walls = append(walls, wall)
		for _, kt := range s.Timings {
			kernelMs.add(kt.Kernel, 1000*(kt.PrepareSec+kt.RunSec))
		}
		gateSuite(o, s, want)
		last = s
	}
	e.logf("paper_suite: %d cold passes, walls %v", len(walls), walls)
	if last == nil {
		return nil, fmt.Errorf("no suite completed: %v", o.problems)
	}
	o.set("wall_s", median(walls))
	o.set("p50_ms", kernelMs.p50())

	warm, err := warmArchive(e, o, last, t0)
	if err != nil {
		return nil, err
	}
	o.set("warm_points_per_s", suiteRuns/median(warm))
	return o, nil
}

// warmArchive saves the suite's record once, then re-reads and diffs it
// until the budget is spent (at least 5 rounds), returning each round's
// duration.
func warmArchive(e *env, o *outcome, s *experiments.Suite, t0 time.Time) ([]float64, error) {
	store := archive.NewStore(e.workDir + "/suite-store")
	rec := archive.FromSuite(nil, s, 0)
	if _, err := store.Save(rec); err != nil {
		return nil, err
	}
	id := rec.RunID
	var rounds []float64
	for len(rounds) < 5 || time.Since(t0) < e.budget {
		var diff *archive.Diff
		d, err := timed(func() error {
			back, err := store.Load(id)
			if err != nil {
				return err
			}
			diff, err = archive.Compare(rec, back, archive.DiffOptions{})
			return err
		})
		o.attempted++
		if err != nil {
			o.failed++
			o.gate("archive round trip: %v", err)
			break
		}
		if len(diff.Deltas) != 0 || len(diff.MissingInNew) != 0 || diff.Compared == 0 {
			o.gate("archived suite differs from the live one: %d deltas, %d missing, %d compared",
				len(diff.Deltas), len(diff.MissingInNew), diff.Compared)
		}
		rounds = append(rounds, d)
	}
	return rounds, nil
}

// traceSuite counts one untraced suite, then replays the same work
// serially through the public functions — untraced, then traced —
// and reports the ledger.
func traceSuite(e *env) (*outcome, error) {
	o := newLayerOutcome()
	want, err := buildRefs(0)
	if err != nil {
		return nil, err
	}
	s, err := experiments.RunSuite(experiments.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	o.attempted += suiteRuns
	stats, tables := gateSuite(o, s, want)
	var prep, runSec float64
	var counts simCounts
	for _, kt := range s.Timings {
		prep += kt.PrepareSec
		runSec += kt.RunSec
	}
	for _, st := range s.Setups {
		for _, cfg := range sim.Configs {
			counts.add(s.Results[st.Kernel.Name][cfg.Name])
		}
	}
	o.set("experiments.prepare_s", prep)
	o.set("experiments.run_s", runSec)
	o.set("experiments.busy_frac", (prep+runSec)/(float64(s.Workers)*s.WallSec))

	var rep suiteReplay
	err = replayPair(e, o, "paper_suite", func(t *tracer) (err error) {
		rep, err = replaySuite(e, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	rstats, rtables := suiteDigests(o, rep.suite, want)
	if rstats != stats || rtables != tables {
		o.gate("traced replay digests %s/%s differ from the untraced run's %s/%s", rstats, rtables, stats, tables)
	}
	counts.publish(o, rep.exactInstrs, o.metrics["sim.run_s"])
	publishProfiles(o, rep.profHits, rep.profMisses)
	o.set("archive.saves", float64(rep.saves))
	return o, nil
}

// suiteReplay is what one replay of the suite produced and counted.
type suiteReplay struct {
	suite                *experiments.Suite
	exactInstrs          uint64
	profHits, profMisses uint64 // the replay's profile memo, as it reports them
	saves                int    // records in the replay's store, as it lists them
}

// replaySuite is RunSuite on one goroutine: each kernel prepared
// through sim.PrepareWith and run under the four configurations, then
// the figure renders and the archive round trip of the warm path. Its
// profile memo only counts: every kernel's image is distinct.
func replaySuite(e *env, t *tracer) (suiteReplay, error) {
	var rep suiteReplay
	cal := power.DefaultCalibration()
	s := &experiments.Suite{
		Results: map[string]map[string]*sim.Result{},
		Cal:     cal,
		Chip:    power.DefaultChipModel(),
		Workers: 1,
	}
	profiles := profile.NewCache()
	for _, k := range kernels.All() {
		st, err := prepare(t, k.Name, k, 0, synth.DefaultOptions(), profiles)
		if err != nil {
			return rep, err
		}
		s.Setups = append(s.Setups, st)
		s.Results[k.Name] = map[string]*sim.Result{}
		for _, cfg := range sim.Configs {
			var r *sim.Result
			t.do("sim.run", k.Name+"/"+cfg.Name, func() { r, err = st.Run(cfg, cal) })
			if err != nil {
				return rep, err
			}
			s.Results[k.Name][cfg.Name] = r
			rep.exactInstrs += r.Pipe.Instrs
		}
	}
	var buf bytes.Buffer
	t.do("experiments.render", "figures", func() {
		for _, tab := range s.AllFigures() {
			tab.Render(&buf)
		}
	})
	store, err := newStore(e, "replay-store")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(store.Dir)
	var rec *archive.Record
	t.do("archive.save", "suite", func() {
		rec = archive.FromSuite(nil, s, 0)
		_, err = store.Save(rec)
	})
	if err != nil {
		return rep, err
	}
	t.do("archive.get", "suite", func() { _, err = store.Load(rec.RunID) })
	if err != nil {
		return rep, err
	}
	if rep.saves, _, err = store.Stats(); err != nil {
		return rep, err
	}
	rep.suite = s
	rep.profHits, rep.profMisses = profiles.Stats()
	return rep, nil
}
