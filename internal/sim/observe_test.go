package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"powerfits/internal/cache"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/synth"
	"powerfits/internal/tracing"
)

// observedSetup prepares crc32 once for the observation tests.
func observedSetup(t *testing.T) *Setup {
	t.Helper()
	s, err := Prepare(kernels.MustGet("crc32"), 1, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestObservedRunMatchesPlainRun asserts the overhead contract's
// correctness half: recording a phase series must not change any
// architectural or aggregate result.
func TestObservedRunMatchesPlainRun(t *testing.T) {
	s := observedSetup(t)
	cal := power.DefaultCalibration()
	for _, cfg := range Configs {
		plain, err := s.Run(cfg, cal)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := s.RunWith(cfg, cal, RunOptions{Window: 512})
		if err != nil {
			t.Fatal(err)
		}
		if obs.Phases == nil {
			t.Fatalf("%s: observed run carries no phases", cfg.Name)
		}
		if plain.Phases != nil {
			t.Fatalf("%s: plain run carries phases", cfg.Name)
		}
		comparePlainTraced(t, cfg.Name, plain, obs)
	}
}

// TestPhaseSeriesConsistency asserts the window sums reconstruct the
// run totals exactly, so the time series is a lossless decomposition.
func TestPhaseSeriesConsistency(t *testing.T) {
	s := observedSetup(t)
	cal := power.DefaultCalibration()
	r, err := s.RunWith(FITS8, cal, RunOptions{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	ph := r.Phases
	if len(ph.Samples) < 2 {
		t.Fatalf("only %d windows at 256 cycles over %d cycles", len(ph.Samples), r.Pipe.Cycles)
	}
	var cycles, fetches, misses, instrs uint64
	var sw, in, lk float64
	for _, w := range ph.Samples {
		cycles += w.Cycles
		fetches += w.Fetches
		misses += w.Misses
		instrs += w.Instrs
		sw += w.SwitchPJ
		in += w.InternalPJ
		lk += w.LeakPJ
	}
	if cycles != r.Pipe.Cycles {
		t.Errorf("window cycles sum %d ≠ run cycles %d", cycles, r.Pipe.Cycles)
	}
	if last := ph.Samples[len(ph.Samples)-1]; last.EndCycle != r.Pipe.Cycles {
		t.Errorf("last window ends at %d, run at %d", last.EndCycle, r.Pipe.Cycles)
	}
	if fetches != r.Cache.Accesses || misses != r.Cache.Misses {
		t.Errorf("window fetch/miss sums %d/%d ≠ cache stats %d/%d",
			fetches, misses, r.Cache.Accesses, r.Cache.Misses)
	}
	if instrs != r.Pipe.Instrs {
		t.Errorf("window instr sum %d ≠ retired %d", instrs, r.Pipe.Instrs)
	}
	relClose := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	if !relClose(sw, r.Power.SwitchingPJ) || !relClose(in, r.Power.InternalPJ) ||
		!relClose(lk, r.Power.LeakagePJ) {
		t.Errorf("window energy sums %g/%g/%g ≠ report %g/%g/%g",
			sw, in, lk, r.Power.SwitchingPJ, r.Power.InternalPJ, r.Power.LeakagePJ)
	}
}

// TestHotspotAttribution asserts the PC map accounts for every access
// and every picojoule of fetch energy (switching + line fills).
func TestHotspotAttribution(t *testing.T) {
	s := observedSetup(t)
	cal := power.DefaultCalibration()
	r, err := s.RunWith(ARM16, cal, RunOptions{Window: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ph := r.Phases
	if len(ph.Hotspots) == 0 {
		t.Fatal("no hotspots recorded")
	}
	var fetches, misses uint64
	for _, h := range ph.Hotspots {
		fetches += h.Fetches
		misses += h.Misses
	}
	if fetches != r.Cache.Accesses || misses != r.Cache.Misses {
		t.Errorf("hotspot fetch/miss totals %d/%d ≠ cache stats %d/%d",
			fetches, misses, r.Cache.Accesses, r.Cache.Misses)
	}
	fill := cal.FillPJPerBit * float64(ARM16.Cache.LineBytes*8)
	wantPJ := r.Power.SwitchingPJ + float64(r.Cache.Misses)*fill
	if got := ph.TotalFetchPJ(); math.Abs(got-wantPJ) > 1e-6*wantPJ {
		t.Errorf("attributed fetch energy %g ≠ switching+fills %g", got, wantPJ)
	}
	// Buckets arrive hottest-first.
	for i := 1; i < len(ph.Hotspots); i++ {
		if ph.Hotspots[i-1].FetchPJ < ph.Hotspots[i].FetchPJ {
			t.Fatalf("hotspots not sorted by energy at %d", i)
		}
	}
}

// TestFetchPortNoAllocs is the overhead contract's cost half: the
// fetch path must not allocate (ci.sh additionally gates this through
// BenchmarkFetchPort).
func TestFetchPortNoAllocs(t *testing.T) {
	s := observedSetup(t)
	c := cache.MustNew(cache.SA1100ICache())
	m := power.MustNewMeter(cache.SA1100ICache(), power.DefaultCalibration())
	port := newICachePort(c, m, s.ArmImage, 4)
	i := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		port.FetchBlock(s.ArmImage.TextBase + (i*4)&0xFC)
		port.Tick()
		i++
	})
	if allocs != 0 {
		t.Errorf("fetch path allocates %v allocs/op, want 0", allocs)
	}
}

// TestHotspotBuckets pins the hotspot map's bucketing: fetches land in
// fixed 64-byte buckets of the text segment, the hottest first, and
// fetches outside the segment in a catch-all bucket of zero range.
func TestHotspotBuckets(t *testing.T) {
	const base, text = 0x2000, 100 // the second bucket is clipped
	prof, err := tracing.NewProfiler(hotspotBlocks(base, text), base, text)
	if err != nil {
		t.Fatal(err)
	}
	e := &fixedEnergy{}
	prof.BindEnergy(e)
	fetch := func(addr uint32, miss bool, pj float64) {
		e.pj = pj
		kind := tracing.KindFetch
		if miss {
			kind = tracing.KindMiss
		}
		prof.Emit(tracing.Event{PC: addr, Kind: kind})
	}
	fetch(0x2000, false, 10)                                      // bucket 0
	fetch(0x2004, true, 30)                                       // bucket 0
	fetch(0x2060, false, 5)                                       // bucket 1, inside the clipped tail
	fetch(0x9999, false, 7)                                       // outside the text segment
	prof.Emit(tracing.Event{PC: 0x2040, Kind: tracing.KindStall}) // no fetch: no row
	series := &metrics.Series{Hotspots: hotspots(prof.Table(0))}
	if len(series.Hotspots) != 3 {
		t.Fatalf("hotspots = %+v, want 3", series.Hotspots)
	}
	top := series.TopHotspots(1)[0]
	if top.StartAddr != 0x2000 || top.EndAddr != 0x2040 || top.FetchPJ != 40 ||
		top.Fetches != 2 || top.Misses != 1 {
		t.Errorf("top hotspot = %+v, want bucket [0x2000,0x2040) with 40 pJ", top)
	}
	if tail := series.Hotspots[2]; tail.StartAddr != 0x2040 || tail.EndAddr != 0x2080 || tail.FetchPJ != 5 {
		t.Errorf("clipped bucket = %+v, want [0x2040,0x2080) with 5 pJ", tail)
	}
	if got := series.TotalFetchPJ(); math.Abs(got-52) > 1e-12 {
		t.Errorf("total fetch energy = %v, want 52", got)
	}
	if h := series.Hotspots[1]; h.StartAddr != 0 || h.EndAddr != 0 || h.FetchPJ != 7 {
		t.Errorf("catch-all bucket = %+v, want zero range with 7 pJ", h)
	}
}

// fixedEnergy is a tracing.AccessEnergy reporting a scripted value.
type fixedEnergy struct{ pj float64 }

func (f *fixedEnergy) LastAccessPJ() float64 { return f.pj }
func (f *fixedEnergy) AccessPJ() float64     { return 0 }

// TestGoldenPhaseSeries pins the phase series and hotspot map of
// crc32 at scale 1 on FITS8 with 256-cycle windows, as JSON. Refresh
// after review with
// `go test ./internal/sim -run TestGoldenPhaseSeries -update`.
func TestGoldenPhaseSeries(t *testing.T) {
	s := observedSetup(t)
	r, err := s.RunWith(FITS8, power.DefaultCalibration(), RunOptions{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(r.Phases, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "series_crc32_fits8_w256.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("phase series drifted from %s; run with -update after review", golden)
	}
}

// TestRunWithRejectsBadOptions pins RunWith's option checks: a negative
// window, and a window combined with sampling or a sink.
func TestRunWithRejectsBadOptions(t *testing.T) {
	s := observedSetup(t)
	cal := power.DefaultCalibration()
	for name, opt := range map[string]RunOptions{
		"negative window":  {Window: -5},
		"window + sample":  {Window: 256, Sample: &SampleOptions{}},
		"window + sink":    {Window: 256, Sink: &tracing.Counts{}},
		"negative + empty": {Window: -1, Sample: &SampleOptions{}},
	} {
		if r, err := s.RunWith(FITS8, cal, opt); err == nil {
			t.Errorf("%s: accepted, result %+v", name, r)
		}
	}
}
