package sim

import (
	"sort"

	"powerfits/internal/cache"
	"powerfits/internal/cpu"
	"powerfits/internal/metrics"
	"powerfits/internal/power"
	"powerfits/internal/program"
	"powerfits/internal/tracing"
)

// This file is the observation support of the simulation layer: binding
// a run's power meter to an attribution sink, building the attribution
// profiler over a configuration's image, and recording the phase series
// and hotspot map of a windowed run. The runs themselves take their
// sink and window through RunOptions.

// energyBinder is implemented by sinks that attribute per-access fetch
// energy (tracing.Profiler); traced runs bind their power meter to such
// sinks before the first cycle.
type energyBinder interface{ BindEnergy(tracing.AccessEnergy) }

// bindEnergy attaches the run's meter to an attribution sink (a no-op
// for a nil sink or one that attributes no energy).
func bindEnergy(sink tracing.EventSink, m *power.Meter) {
	if b, ok := sink.(energyBinder); ok {
		b.BindEnergy(m)
	}
}

// Stalls extracts the CPI stack of a pipeline result as the export
// layer's stall-cause breakdown.
func Stalls(p *cpu.PipeResult) *metrics.StallBreakdown {
	return &metrics.StallBreakdown{
		MissCycles:   p.ZeroIssueMiss,
		BubbleCycles: p.ZeroIssueBubble,
		FetchCycles:  p.ZeroIssueFetch,
		HazardCycles: p.ZeroIssueHazard,
		DualIssue:    p.DualIssueCycles,
	}
}

// TraceBlocks derives the attribution targets for cfg's image: one
// tracing.Block per basic block of the predecoded program, labeled by
// its containing function.
func (s *Setup) TraceBlocks(cfg Config) []tracing.Block {
	_, _, dec, _ := s.target(cfg)
	bbs := dec.BasicBlocks()
	blocks := make([]tracing.Block, len(bbs))
	for i, b := range bbs {
		label := b.Func
		if label == "" {
			label = "(nofunc)"
		}
		blocks[i] = tracing.Block{Label: label, Addr: b.Addr, End: b.End}
	}
	return blocks
}

// NewProfiler builds the energy/stall attribution profiler for cfg's
// image, ready to pass as RunOptions.Sink (the run binds its meter to
// it). One profiler serves one run.
func (s *Setup) NewProfiler(cfg Config) (*tracing.Profiler, error) {
	_, im, _, _ := s.target(cfg)
	return tracing.NewProfiler(s.TraceBlocks(cfg), im.TextBase, len(im.Text))
}

// runWindows runs the pipeline to halt in RunCycles windows of w
// cycles, polling the meter, cache and instruction counters at every
// window boundary, while a tracing.Profiler over fixed-size PC buckets
// attributes every fetch's energy to its bucket.
func runWindows(m *cpu.Machine, pc cpu.PipeConfig, port cpu.FetchPort, dec *cpu.Decoded,
	pres *cpu.PipeResult, c *cache.Cache, meter *power.Meter, im *program.Image, w int) (*metrics.Series, error) {
	hot, err := tracing.NewProfiler(hotspotBlocks(im.TextBase, len(im.Text)), im.TextBase, len(im.Text))
	if err != nil {
		return nil, err
	}
	hot.BindEnergy(meter)
	sampler, err := metrics.NewSampler(metrics.SamplerConfig{
		WindowCycles: w,
		Energy:       meter,
		Access:       c,
		Instrs:       func() uint64 { return m.InstrCount },
	})
	if err != nil {
		return nil, err
	}
	run, err := cpu.NewPipelineRun(m, pc, port, dec, pres, hot)
	if err != nil {
		return nil, err
	}
	for k := uint64(1); !run.Done(); k++ {
		if err := run.RunCycles(k * uint64(w)); err != nil {
			return nil, err
		}
		sampler.CloseWindow(run.Cycles())
	}
	series := sampler.Series()
	series.Hotspots = hotspots(hot.Table(0))
	return series, nil
}

// hotspotBucketBytes is the PC granularity of the fetch-energy hotspot
// map.
const hotspotBucketBytes = 64

// hotspotBlocks partitions the text segment [base, base+textBytes) into
// hotspot buckets (the last one clipped to the segment): the
// attribution targets of the profiler behind the hotspot map.
func hotspotBlocks(base uint32, textBytes int) []tracing.Block {
	blocks := make([]tracing.Block, 0, (textBytes+hotspotBucketBytes-1)/hotspotBucketBytes)
	for off := 0; off < textBytes; off += hotspotBucketBytes {
		end := min(off+hotspotBucketBytes, textBytes)
		blocks = append(blocks, tracing.Block{Addr: base + uint32(off), End: base + uint32(end)})
	}
	return blocks
}

// hotspots converts the rows of a profiler over hotspotBlocks into the
// hotspot map: buckets that saw fetches, hottest first (ties by start
// address), each spanning a full bucket, with fetches outside the text
// segment in one catch-all bucket of zero range.
func hotspots(rows []tracing.BlockStat) []metrics.Hotspot {
	var out []metrics.Hotspot
	for _, r := range rows {
		if r.Fetches == 0 {
			continue
		}
		h := metrics.Hotspot{Fetches: r.Fetches, Misses: r.Misses, FetchPJ: r.FetchPJ}
		if r.End != 0 { // the profiler's catch-all row has no range
			h.StartAddr, h.EndAddr = r.Addr, r.Addr+hotspotBucketBytes
		}
		out = append(out, h)
	}
	sort.Slice(out, func(a, b int) bool {
		ha, hb := out[a], out[b]
		if ha.FetchPJ != hb.FetchPJ {
			return ha.FetchPJ > hb.FetchPJ
		}
		return ha.StartAddr < hb.StartAddr
	})
	return out
}
