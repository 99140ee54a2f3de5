package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"powerfits/internal/archive"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/profile"
	"powerfits/internal/sim"
	"powerfits/internal/sweep"
	"powerfits/internal/synth"
)

// design_sweep: sweep.Run over all 21 kernels, each on sweep.DefaultGrid
// at scale 1 widened to all five ablations (135 points per kernel, 2835
// in all), sampled estimator plus exact frontier refinement, 2 workers,
// into a fresh archive store (the cold pass). Warm passes re-sweep that
// store: every point is read back, none simulated.

const sweepScale = 1

func sweepGrid(kernel string) sweep.Grid {
	g := sweep.DefaultGrid(kernel, sweepScale)
	g.Ablations = sweep.AllAblations()
	return g
}

// sweepPass is one sweep of every kernel.
type sweepPass struct {
	wall    float64
	results []*sweep.Result // in kernels.All order
}

// sweepKernel sweeps one kernel's grid into store.
func sweepKernel(kernel string, store *archive.Store) (*sweep.Result, error) {
	r, err := sweep.Run(sweep.Options{Grid: sweepGrid(kernel), Workers: workers, Store: store})
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %w", kernel, err)
	}
	return r, nil
}

func sweepAll(store *archive.Store) (*sweepPass, error) {
	p := &sweepPass{}
	t0 := time.Now()
	for _, k := range kernels.All() {
		r, err := sweepKernel(k.Name, store)
		if err != nil {
			return nil, err
		}
		p.results = append(p.results, r)
	}
	p.wall = time.Since(t0).Seconds()
	return p, nil
}

func (p *sweepPass) points() int {
	n := 0
	for _, r := range p.results {
		n += r.Stats.Points
	}
	return n
}

// hashPoints folds one kernel's visited points and frontier into d.
func hashPoints(d *digest, points, front []*sweep.PointResult) {
	put := func(pr *sweep.PointResult) {
		m := pr.Metrics
		infeasible := uint64(0)
		if pr.Infeasible != "" {
			infeasible = 1
		}
		sampled := uint64(0)
		if pr.Sampled {
			sampled = 1
		}
		d.str(pr.Label)
		d.u64(uint64(pr.Point.Index), infeasible, sampled, uint64(m.K), uint64(m.DictEntries),
			uint64(m.CodeBytes), m.Cycles, m.Instrs, m.Fetches, m.Misses)
		d.f64(m.EnergyPJ)
	}
	for _, pr := range points {
		put(pr)
	}
	d.str("frontier")
	for _, pr := range front {
		put(pr)
	}
}

// digests returns the digest of every point's simulated metrics and the
// frontier documents of the pass.
func (p *sweepPass) digests() (points string, docs [][]byte, err error) {
	d := newDigest()
	for _, r := range p.results {
		hashPoints(d, r.Points, r.Frontier)
		doc, err := r.Document().Marshal()
		if err != nil {
			return "", nil, err
		}
		docs = append(docs, doc)
	}
	return d.sum(), docs, nil
}

func docsDigest(docs [][]byte) string {
	d := newDigest()
	for _, doc := range docs {
		d.str(string(doc))
	}
	return d.sum()
}

// gateSweep checks a cold pass against the goldens and returns its
// frontier documents, which every warm pass must reproduce.
func gateSweep(o *outcome, p *sweepPass) (string, [][]byte) {
	points, docs, err := p.digests()
	if err != nil {
		o.gate("sweep documents: %v", err)
		return "", nil
	}
	if points != golden.SweepPoints {
		o.gate("sweep points digest %s, recorded %s", points, golden.SweepPoints)
	}
	if got := docsDigest(docs); got != golden.SweepFrontiers {
		o.gate("sweep frontier documents digest %s, recorded %s", got, golden.SweepFrontiers)
	}
	return points, docs
}

// gateWarm checks that a warm sweep simulated nothing and reproduced
// the cold frontier document byte for byte.
func gateWarm(o *outcome, r *sweep.Result, cold []byte) {
	if r.Stats.Evaluated != 0 || r.Stats.Refined != 0 {
		o.gate("warm sweep of %s evaluated %d points and refined %d", r.Grid.Kernel, r.Stats.Evaluated, r.Stats.Refined)
	}
	doc, err := r.Document().Marshal()
	if err != nil {
		o.gate("warm sweep document of %s: %v", r.Grid.Kernel, err)
	} else if !bytes.Equal(doc, cold) {
		o.gate("warm frontier document of %s differs from the cold one", r.Grid.Kernel)
	}
}

// newStore creates an empty archive store under the run's scratch space.
func newStore(e *env, name string) (*archive.Store, error) {
	dir, err := os.MkdirTemp(e.workDir, name+"-")
	if err != nil {
		return nil, err
	}
	return archive.NewStore(dir), nil
}

// The measured run is rounds over the kernels. In a round each kernel
// is swept cold into a fresh store, then re-swept warm from that store
// sweepWarmReps times, so cold and warm sweeps interleave kernel by
// kernel and a slow stretch of the shared host moves a few kernels'
// samples in one round, not a whole phase. A kernel's cold and warm
// times are medians over the rounds; wall_s and the warm rate sum the
// medians of the 21 kernels.
const sweepWarmReps = 5

func runSweep(e *env) (*outcome, error) {
	o := newOutcome()
	setup, err := medianSetup(setupRepeats, func() error { return nil }, func() error {
		if _, err := buildRefs(sweepScale); err != nil {
			return err
		}
		for _, k := range kernels.All() {
			g := sweepGrid(k.Name)
			if err := g.Validate(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.set("setup_s", setup)

	t0 := time.Now()
	cold, warm := kernelTimes{}, kernelTimes{}
	points := 0
	var round time.Duration
	for n := 0; n < 2 || time.Since(t0)+round <= e.budget; n++ {
		r0 := time.Now()
		pass := &sweepPass{}
		points = 0
		for _, k := range kernels.All() {
			if err := sweepColdWarm(e, o, k.Name, pass, cold, warm); err != nil {
				return nil, err
			}
			points += pass.results[len(pass.results)-1].Stats.Points
		}
		gateSweep(o, pass)
		round = time.Since(r0)
		e.logf("design_sweep: round %d took %.3fs", n, round.Seconds())
	}
	o.set("wall_s", cold.sum()/1000)
	o.set("p50_ms", cold.p50())
	o.set("warm_points_per_s", float64(points)/(warm.sum()/1000))
	return o, nil
}

// sweepColdWarm sweeps one kernel cold into a fresh store and warm from it,
// recording the times in milliseconds and the cold result in pass.
func sweepColdWarm(e *env, o *outcome, kernel string, pass *sweepPass, cold, warm kernelTimes) error {
	store, err := newStore(e, "sweep-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(store.Dir)
	runtime.GC()
	var r *sweep.Result
	wall, err := timed(func() (err error) { r, err = sweepKernel(kernel, store); return err })
	if err != nil {
		return err
	}
	o.attempted += int64(r.Stats.Points)
	cold.add(kernel, 1000*wall)
	pass.results = append(pass.results, r)
	doc, err := r.Document().Marshal()
	if err != nil {
		return err
	}
	for i := 0; i < sweepWarmReps; i++ {
		var w *sweep.Result
		wall, err := timed(func() (err error) { w, err = sweepKernel(kernel, store); return err })
		if err != nil {
			return err
		}
		o.attempted += int64(w.Stats.Points)
		warm.add(kernel, 1000*wall)
		gateWarm(o, w, doc)
	}
	return nil
}

// traceSweep counts one cold and one warm pass, then replays the cold
// pass serially through the public functions and reports the ledger.
func traceSweep(e *env) (*outcome, error) {
	o := newLayerOutcome()
	store, err := newStore(e, "sweep-store")
	if err != nil {
		return nil, err
	}
	cold, err := sweepAll(store)
	if err != nil {
		return nil, err
	}
	points, coldDocs := gateSweep(o, cold)
	warm, err := sweepAll(store)
	if err != nil {
		return nil, err
	}
	for i, r := range warm.results {
		gateWarm(o, r, coldDocs[i])
	}
	o.attempted += int64(cold.points() + warm.points())

	var st sweep.Stats
	for _, p := range []*sweepPass{cold, warm} {
		for _, r := range p.results {
			s := r.Stats
			st.Points += s.Points
			st.Evaluated += s.Evaluated
			st.ArchiveSkips += s.ArchiveSkips
			st.Infeasible += s.Infeasible
			st.Refined += s.Refined
			st.MemoHits += s.MemoHits
			st.ProfileRuns += s.ProfileRuns
		}
	}
	o.set("sweep.points", float64(st.Points))
	o.set("sweep.evaluated", float64(st.Evaluated))
	o.set("sweep.archive_skips", float64(st.ArchiveSkips))
	o.set("sweep.infeasible", float64(st.Infeasible))
	o.set("sweep.refined", float64(st.Refined))
	if st.Evaluated > 0 {
		o.set("sweep.feasible_ratio", float64(st.Evaluated-st.Infeasible)/float64(st.Evaluated))
	}
	o.set("sweep.points_per_s", float64(cold.points())/cold.wall)
	publishProfiles(o, st.MemoHits, st.ProfileRuns)
	saves, _, err := store.Stats()
	if err != nil {
		return nil, err
	}
	o.set("archive.saves", float64(saves))

	var counts simCounts
	var replayPoints string
	var exactInstrs uint64
	err = replayPair(e, o, "design_sweep", func(t *tracer) error {
		var err error
		replayPoints, counts, exactInstrs, err = replaySweep(e, t, cold)
		return err
	})
	if err != nil {
		return nil, err
	}
	if replayPoints != points {
		o.gate("traced replay points digest %s differs from the untraced run's %s", replayPoints, points)
	}
	counts.publish(o, exactInstrs, o.metrics["sim.run_s"])
	return o, nil
}

// replaySweep is the cold pass on one goroutine, point by point: store
// probe, preparation, sampled run, save; then the exact refinement of the frontier the untraced pass chose. It returns the
// points digest, the timing-run counts and the exact runs' instructions.
func replaySweep(e *env, t *tracer, cold *sweepPass) (string, simCounts, uint64, error) {
	var counts simCounts
	var exactInstrs uint64
	cal := power.DefaultCalibration()
	calBlob, err := json.Marshal(cal)
	if err != nil {
		return "", counts, 0, err
	}
	store, err := newStore(e, "replay-store")
	if err != nil {
		return "", counts, 0, err
	}
	defer os.RemoveAll(store.Dir)
	d := newDigest()
	for _, r := range cold.results {
		g := r.Grid
		k, err := kernels.Get(g.Kernel)
		if err != nil {
			return "", counts, 0, err
		}
		profiles := profile.NewCache()
		// visit mirrors the sweep engine's evaluation of one point.
		visit := func(p sweep.Point, sampled bool) (*sweep.PointResult, error) {
			popts := p.Options(synth.Options{})
			sp := archive.SweepPoint{Kernel: g.Kernel, Scale: g.Scale, Label: p.Label(),
				OptionsKey: popts.Key(), CacheBytes: p.Cache.SizeBytes, CacheLine: p.Cache.LineBytes,
				CacheAssoc: p.Cache.Assoc, Sampled: sampled}
			id := archive.SweepRunID(&sp, calBlob)
			pr := &sweep.PointResult{Point: p, Label: sp.Label, RunID: id, Sampled: sampled}
			var probeErr error
			t.do("archive.get", id, func() { _, probeErr = store.Load(id) })
			if probeErr == nil {
				return nil, fmt.Errorf("%s: replay store already holds %s", g.Kernel, id)
			}
			s, err := prepare(t, sp.Label, k, g.Scale, popts, profiles)
			if err != nil {
				pr.Infeasible = err.Error()
			} else {
				cfg := sim.Config{Name: sp.Label, ISA: sim.ISAFITS, Cache: p.Cache}
				var res *sim.Result
				if sampled {
					t.do("sim.run_sampled", sp.Label, func() { res, err = s.RunSampled(cfg, cal, sim.SampleOptions{}) })
				} else {
					t.do("sim.run", sp.Label, func() { res, err = s.Run(cfg, cal) })
				}
				if err != nil {
					return nil, err
				}
				counts.add(res)
				if !sampled {
					exactInstrs += res.Pipe.Instrs
				}
				pr.Metrics = sweep.PointMetrics{K: s.Synth.K, DictEntries: s.Synth.DictEntries,
					CodeBytes: s.Fits.Image.Size(), Cycles: res.Pipe.Cycles, Instrs: res.Pipe.Instrs,
					Fetches: res.Cache.Accesses, Misses: res.Cache.Misses, EnergyPJ: res.Power.TotalPJ()}
			}
			m := pr.Metrics
			sp.Infeasible, sp.K, sp.DictEntries, sp.CodeBytes = pr.Infeasible, m.K, m.DictEntries, m.CodeBytes
			sp.Cycles, sp.Instrs, sp.Fetches, sp.Misses, sp.EnergyPJ = m.Cycles, m.Instrs, m.Fetches, m.Misses, m.EnergyPJ
			t.do("archive.save", id, func() { _, err = store.Save(archive.FromSweepPoint(&sp, calBlob)) })
			return pr, err
		}
		points := make([]*sweep.PointResult, g.Size())
		for i := range points {
			if points[i], err = visit(g.Point(i), true); err != nil {
				return "", counts, 0, err
			}
		}
		front := make([]*sweep.PointResult, len(r.Frontier))
		for i, fp := range r.Frontier {
			if front[i], err = visit(fp.Point, false); err != nil {
				return "", counts, 0, err
			}
		}
		hashPoints(d, points, front)
	}
	return d.sum(), counts, exactInstrs, nil
}
