package sim

import (
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"powerfits/internal/cache"
	"powerfits/internal/kernels"
	"powerfits/internal/power"
	"powerfits/internal/synth"
)

// sameReport compares two power reports field by field, floats through
// their bit patterns.
func sameReport(a, b power.Report) bool {
	fb := math.Float64bits
	return fb(a.SwitchingPJ) == fb(b.SwitchingPJ) && fb(a.InternalPJ) == fb(b.InternalPJ) &&
		fb(a.LeakagePJ) == fb(b.LeakagePJ) && a.Cycles == b.Cycles && a.Accesses == b.Accesses &&
		a.Misses == b.Misses && fb(a.PeakPowerW) == fb(b.PeakPowerW) && fb(a.FreqHz) == fb(b.FreqHz)
}

// compareSolo asserts that got, one result of a RunConfigs call, is the
// result a solo RunWith of the same configuration produces, bit for bit.
func compareSolo(t *testing.T, s *Setup, got *Result, cal power.Calibration, opt RunOptions) {
	t.Helper()
	want, err := s.RunWith(got.Config, cal, opt)
	if err != nil {
		t.Fatal(err)
	}
	tag := s.Kernel.Name + "/" + got.Config.Name
	if !reflect.DeepEqual(*got.Pipe, *want.Pipe) {
		t.Errorf("%s: pipeline result differs from the solo run:\ngot  %+v\nwant %+v", tag, *got.Pipe, *want.Pipe)
	}
	if got.Cache != want.Cache {
		t.Errorf("%s: cache stats %+v, solo %+v", tag, got.Cache, want.Cache)
	}
	if !sameReport(got.Power, want.Power) {
		t.Errorf("%s: power report %+v, solo %+v", tag, got.Power, want.Power)
	}
	if math.Float64bits(got.AccessPJ) != math.Float64bits(want.AccessPJ) {
		t.Errorf("%s: AccessPJ %v, solo %v", tag, got.AccessPJ, want.AccessPJ)
	}
	if !reflect.DeepEqual(got.Sampled, want.Sampled) {
		t.Errorf("%s: sampling stats %+v, solo %+v", tag, got.Sampled, want.Sampled)
	}
}

// checkUnaliased asserts that no two results share an Output backing
// array.
func checkUnaliased(t *testing.T, rs []*Result) {
	t.Helper()
	for i, a := range rs {
		for _, b := range rs[i+1:] {
			if len(a.Pipe.Output) > 0 && len(b.Pipe.Output) > 0 && &a.Pipe.Output[0] == &b.Pipe.Output[0] {
				t.Errorf("%s and %s share one Output slice", a.Config.Name, b.Config.Name)
			}
		}
	}
}

// TestRunConfigsMatchesSolo runs the paper's four configurations of
// every kernel through one RunConfigs call — two lockstep runs, one per
// image, plus any divergence re-run — and asserts each result equals a
// solo RunWith bit for bit.
func TestRunConfigsMatchesSolo(t *testing.T) {
	cal := power.DefaultCalibration()
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := Prepare(k, 1, synth.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			rs, err := s.RunConfigs(Configs, cal, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rs {
				if r.Config != Configs[i] {
					t.Fatalf("result %d is %s, want %s", i, r.Config.Name, Configs[i].Name)
				}
				compareSolo(t, s, r, cal, RunOptions{})
			}
			checkUnaliased(t, rs)
		})
	}
}

// TestRunConfigsDivergence drives groups whose followers leave the
// lockstep run: every result must still equal its solo run, the
// diverged configurations must be marked as re-runs, and the others
// must stay followers of the group's lead.
func TestRunConfigsDivergence(t *testing.T) {
	cal := power.DefaultCalibration()
	// blowfish's 1.5 KB text conflicts in a 1 KB direct-mapped cache
	// but fits both paper geometries.
	dm1K := Config{Name: "ARM1K-DM", ISA: ISAARM,
		Cache: cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}}
	cases := []struct {
		name   string
		kernel string
		scale  int
		cfgs   []Config
		opt    RunOptions
		rerun  []bool // per cfgs entry
	}{
		// The paper's ARM8 exception: jpeg's working set overflows 8 KB.
		{"jpeg-ARM8", "jpeg", 0, []Config{ARM16, ARM8}, RunOptions{}, []bool{false, true}},
		{"dm1K", "blowfish", 1, []Config{ARM16, dm1K}, RunOptions{}, []bool{false, true}},
		{"middle", "blowfish", 1, []Config{ARM16, dm1K, ARM8}, RunOptions{}, []bool{false, true, false}},
		{"interleaved", "crc32", 1, []Config{FITS8, ARM8, FITS16, ARM16}, RunOptions{},
			[]bool{false, false, false, false}},
		{"sampled", "crc32", 1, Configs, RunOptions{Sample: &SampleOptions{}},
			[]bool{false, false, false, false}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, err := Prepare(kernels.MustGet(tc.kernel), tc.scale, synth.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			rs, err := s.RunConfigs(tc.cfgs, cal, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[ISA]bool{}
			for i, r := range rs {
				if r.Config != tc.cfgs[i] {
					t.Fatalf("result %d is %s, want %s", i, r.Config.Name, tc.cfgs[i].Name)
				}
				// The first configuration of each ISA and every re-run lead.
				lead := !seen[r.Config.ISA] || tc.rerun[i]
				seen[r.Config.ISA] = true
				if r.Run.Rerun != tc.rerun[i] || r.Run.Lead != lead {
					t.Errorf("%s: run %+v, want lead=%t rerun=%t", r.Config.Name, r.Run, lead, tc.rerun[i])
				}
				compareSolo(t, s, r, cal, tc.opt)
			}
			checkUnaliased(t, rs)
		})
	}
}

// sweepGeometries are the FITS configurations of the design sweep's
// default cache axis.
var sweepGeometries = []Config{
	{Name: "FITS-4K", ISA: ISAFITS, Cache: cache.Config{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 32}},
	{Name: "FITS-8K", ISA: ISAFITS, Cache: cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 32}},
	{Name: "FITS-16K", ISA: ISAFITS, Cache: cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 32}},
}

// TestRunConfigsSampledMatchesSolo runs every kernel's sweep geometries
// and the paper's four configurations through one sampled RunConfigs
// call — one lockstep sampled run per image, plus any divergence
// re-run — and asserts each result equals a solo sampled run bit for
// bit: pipeline result and Output, cache stats, power report, sampling
// stats with both intervals, and AccessPJ.
func TestRunConfigsSampledMatchesSolo(t *testing.T) {
	cal := power.DefaultCalibration()
	cfgs := append(slices.Clone(sweepGeometries), Configs...)
	opt := RunOptions{Sample: &SampleOptions{}}
	var followers atomic.Int64
	t.Run("kernels", func(t *testing.T) {
		for _, k := range kernels.All() {
			k := k
			t.Run(k.Name, func(t *testing.T) {
				t.Parallel()
				s, err := Prepare(k, 1, synth.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				rs, err := s.RunConfigs(cfgs, cal, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range rs {
					if r.Config != cfgs[i] {
						t.Fatalf("result %d is %s, want %s", i, r.Config.Name, cfgs[i].Name)
					}
					if r.Sampled == nil {
						t.Fatalf("%s: sampled run carries no SampleStats", r.Config.Name)
					}
					if !r.Run.Lead {
						followers.Add(1)
					}
					compareSolo(t, s, r, cal, opt)
				}
				checkUnaliased(t, rs)
			})
		}
	})
	if followers.Load() == 0 {
		t.Error("no configuration followed a lockstep sampled run")
	}
}

// TestRunConfigsSampledGroups drives sampled groups through their edge
// cases: forced divergences in either direction, both exact fallbacks,
// and a mixed-line-size group that must not share one run. Every result
// must equal its solo sampled run, with the expected lead and re-run
// marks.
func TestRunConfigsSampledGroups(t *testing.T) {
	cal := power.DefaultCalibration()
	// blowfish's FITS text conflicts in a 512-byte direct-mapped cache.
	tiny := Config{Name: "FITS512-DM", ISA: ISAFITS,
		Cache: cache.Config{SizeBytes: 512, LineBytes: 32, Assoc: 1}}
	line16 := Config{Name: "FITS16-L16", ISA: ISAFITS,
		Cache: cache.Config{SizeBytes: 16 << 10, LineBytes: 16, Assoc: 32}}
	cases := []struct {
		name        string
		cfgs        []Config
		sample      SampleOptions
		lead, rerun []bool // per cfgs entry
		exact       bool   // every result is an exact fallback
	}{
		{"tiny-follower", []Config{FITS16, tiny}, SampleOptions{},
			[]bool{true, true}, []bool{false, true}, false},
		{"tiny-lead", []Config{tiny, FITS16, FITS8}, SampleOptions{},
			[]bool{true, true, true}, []bool{false, true, true}, false},
		{"head", []Config{ARM16, ARM8, tiny}, SampleOptions{HeadInstrs: 1 << 40},
			[]bool{true, false, true}, []bool{false, false, false}, true},
		{"quota", []Config{ARM16, ARM8, FITS16, tiny}, SampleOptions{MinWindows: 1 << 20},
			[]bool{true, false, true, true}, []bool{false, false, false, true}, true},
		{"line-size", []Config{FITS16, line16, FITS8}, SampleOptions{},
			[]bool{true, true, false}, []bool{false, false, false}, false},
	}
	s, err := Prepare(kernels.MustGet("blowfish"), 1, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			opt := RunOptions{Sample: &tc.sample}
			rs, err := s.RunConfigs(tc.cfgs, cal, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rs {
				if r.Config != tc.cfgs[i] {
					t.Fatalf("result %d is %s, want %s", i, r.Config.Name, tc.cfgs[i].Name)
				}
				if r.Run.Lead != tc.lead[i] || r.Run.Rerun != tc.rerun[i] {
					t.Errorf("%s: run %+v, want lead=%t rerun=%t", r.Config.Name, r.Run, tc.lead[i], tc.rerun[i])
				}
				if r.Sampled == nil || r.Sampled.Exact != tc.exact {
					t.Errorf("%s: sampling stats %+v, want exact=%t", r.Config.Name, r.Sampled, tc.exact)
				}
				compareSolo(t, s, r, cal, opt)
			}
			checkUnaliased(t, rs)
		})
	}
}

// BenchmarkFetchPort measures the lockstep fetch port: one follower
// cache and meter riding the primary pair. ci.sh gates it at
// 0 allocs/op next to the solo port's benchmark.
func BenchmarkFetchPort(b *testing.B) {
	s, err := Prepare(kernels.MustGet("crc32"), 1, synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("lockstep", func(b *testing.B) {
		cal := power.DefaultCalibration()
		port := newICachePort(cache.MustNew(ARM16.Cache), power.MustNewMeter(ARM16.Cache, cal), s.ArmImage, 4)
		port.followers = []*follower{{c: cache.MustNew(ARM8.Cache), m: power.MustNewMeter(ARM8.Cache, cal)}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			port.FetchBlock(s.ArmImage.TextBase + uint32(i*4)&0xFC)
			port.Tick()
		}
		if len(port.followers) != 1 {
			b.Fatal("the follower diverged on a stream both caches hold")
		}
	})
}
