package metrics

import "fmt"

// EnergySource exposes a power model's cumulative energy counters.
// power.Meter implements it.
type EnergySource interface {
	// EnergyPJ returns cumulative switching, internal and leakage
	// energy in picojoules.
	EnergyPJ() (switchPJ, internalPJ, leakPJ float64)
}

// AccessSource exposes a cache's cumulative access counters.
// cache.Cache implements it.
type AccessSource interface {
	AccessCounts() (accesses, misses uint64)
}

// WindowSample is one completed sample window of a phase series.
type WindowSample struct {
	// EndCycle is the cycle count at the window's close.
	EndCycle uint64 `json:"end_cycle"`
	// Cycles is the window length (the final window may be partial).
	Cycles     uint64  `json:"cycles"`
	Fetches    uint64  `json:"fetches"`
	Misses     uint64  `json:"misses"`
	SwitchPJ   float64 `json:"switch_pj"`
	InternalPJ float64 `json:"internal_pj"`
	LeakPJ     float64 `json:"leak_pj"`
	Instrs     uint64  `json:"instrs"`
}

// TotalPJ returns the window's total cache energy.
func (w WindowSample) TotalPJ() float64 { return w.SwitchPJ + w.InternalPJ + w.LeakPJ }

// IPC returns the window's instructions per cycle.
func (w WindowSample) IPC() float64 {
	if w.Cycles == 0 {
		return 0
	}
	return float64(w.Instrs) / float64(w.Cycles)
}

// MissRate returns the window's misses per access.
func (w WindowSample) MissRate() float64 {
	if w.Fetches == 0 {
		return 0
	}
	return float64(w.Misses) / float64(w.Fetches)
}

// Hotspot is one PC-range bucket of the fetch-energy attribution map.
type Hotspot struct {
	StartAddr uint32  `json:"start_addr"`
	EndAddr   uint32  `json:"end_addr"`
	Fetches   uint64  `json:"fetches"`
	Misses    uint64  `json:"misses"`
	FetchPJ   float64 `json:"fetch_pj"`
}

// Series is the phase-resolved outcome of one observed run.
type Series struct {
	// WindowCycles is the nominal sample window length.
	WindowCycles int `json:"window_cycles"`
	// Samples are the completed windows in time order.
	Samples []WindowSample `json:"samples"`
	// Hotspots are the non-empty PC-attribution buckets sorted by
	// descending fetch energy.
	Hotspots []Hotspot `json:"hotspots,omitempty"`
}

// TotalFetchPJ returns the fetch energy summed over every hotspot
// bucket (switching plus line fills for the whole run).
func (s *Series) TotalFetchPJ() float64 {
	var t float64
	for _, h := range s.Hotspots {
		t += h.FetchPJ
	}
	return t
}

// TopHotspots returns the n hottest buckets (all of them when n ≤ 0 or
// exceeds the bucket count).
func (s *Series) TopHotspots(n int) []Hotspot {
	if n <= 0 || n > len(s.Hotspots) {
		n = len(s.Hotspots)
	}
	return s.Hotspots[:n]
}

// SamplerConfig wires a Sampler to one run's components.
type SamplerConfig struct {
	// WindowCycles is the sample window length in pipeline cycles.
	WindowCycles int
	// Energy is the run's power model (required).
	Energy EnergySource
	// Access is the run's cache (required).
	Access AccessSource
	// Instrs, when non-nil, returns the cumulative retired-instruction
	// count (for per-window IPC).
	Instrs func() uint64
}

// Sampler records a cycle-windowed time series of fetch, miss, energy
// and IPC deltas. It is a poller: the code running the pipeline calls
// CloseWindow at each window boundary, and the sampler reads the
// cumulative counters of its sources there, so it adds nothing to the
// cycle loop.
type Sampler struct {
	cfg     SamplerConfig
	samples []WindowSample

	// Cumulative values at the last window boundary.
	lastCycle              uint64
	lastSw, lastIn, lastLk float64
	lastAcc, lastMiss      uint64
	lastInstr              uint64
}

// NewSampler builds a sampler for one run.
func NewSampler(cfg SamplerConfig) (*Sampler, error) {
	if cfg.WindowCycles <= 0 {
		return nil, fmt.Errorf("metrics: non-positive sample window %d", cfg.WindowCycles)
	}
	if cfg.Energy == nil || cfg.Access == nil {
		return nil, fmt.Errorf("metrics: sampler requires energy and access sources")
	}
	return &Sampler{cfg: cfg}, nil
}

// CloseWindow emits one sample from the deltas since the last boundary,
// for the window ending at the run's cumulative cycle count cycles. A
// call that adds no cycles records nothing.
func (s *Sampler) CloseWindow(cycles uint64) {
	if cycles <= s.lastCycle {
		return
	}
	sw, in, lk := s.cfg.Energy.EnergyPJ()
	acc, miss := s.cfg.Access.AccessCounts()
	var instr uint64
	if s.cfg.Instrs != nil {
		instr = s.cfg.Instrs()
	}
	s.samples = append(s.samples, WindowSample{
		EndCycle:   cycles,
		Cycles:     cycles - s.lastCycle,
		Fetches:    acc - s.lastAcc,
		Misses:     miss - s.lastMiss,
		SwitchPJ:   sw - s.lastSw,
		InternalPJ: in - s.lastIn,
		LeakPJ:     lk - s.lastLk,
		Instrs:     instr - s.lastInstr,
	})
	s.lastCycle = cycles
	s.lastSw, s.lastIn, s.lastLk = sw, in, lk
	s.lastAcc, s.lastMiss, s.lastInstr = acc, miss, instr
}

// Series returns the recorded phase series, without hotspots. The final
// window must already be closed (it may be partial).
func (s *Sampler) Series() *Series {
	return &Series{WindowCycles: s.cfg.WindowCycles, Samples: s.samples}
}
