package metrics

import "testing"

// fakeRun is a scripted EnergySource/AccessSource pair.
type fakeRun struct {
	sw, in, lk float64
	acc, miss  uint64
	instrs     uint64
}

func (f *fakeRun) EnergyPJ() (float64, float64, float64) { return f.sw, f.in, f.lk }
func (f *fakeRun) AccessCounts() (uint64, uint64)        { return f.acc, f.miss }

func TestSamplerWindows(t *testing.T) {
	f := &fakeRun{}
	s, err := NewSampler(SamplerConfig{
		WindowCycles: 4,
		Energy:       f, Access: f,
		Instrs: func() uint64 { return f.instrs },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 cycles: one 10 pJ fetch per cycle, a miss every 3rd, 2
	// instrs/cycle; the caller polls at every 4th cycle and at the end.
	for c := 1; c <= 10; c++ {
		f.acc++
		if (c-1)%3 == 0 {
			f.miss++
		}
		f.sw += 10
		f.in += 5
		f.lk += 1
		f.instrs += 2
		if c%4 == 0 {
			s.CloseWindow(uint64(c))
		}
	}
	s.CloseWindow(10)
	s.CloseWindow(10) // a window adding no cycles records nothing
	series := s.Series()
	if len(series.Samples) != 3 {
		t.Fatalf("samples = %d, want 3 (4+4+partial 2)", len(series.Samples))
	}
	w0, w2 := series.Samples[0], series.Samples[2]
	if w0.EndCycle != 4 || w0.Cycles != 4 || w0.Fetches != 4 || w0.Misses != 2 {
		t.Errorf("window 0 = %+v, want end 4, 4 fetches, 2 misses", w0)
	}
	if w0.SwitchPJ != 40 || w0.InternalPJ != 20 || w0.LeakPJ != 4 {
		t.Errorf("window 0 energy = %+v, want sw 40 in 20 lk 4", w0)
	}
	if w0.Instrs != 8 || w0.IPC() != 2 {
		t.Errorf("window 0 instrs/IPC = %d/%v, want 8/2", w0.Instrs, w0.IPC())
	}
	if w2.EndCycle != 10 || w2.Cycles != 2 || w2.Fetches != 2 {
		t.Errorf("partial window = %+v, want end 10, 2 cycles, 2 fetches", w2)
	}

	// Totals across windows must equal the cumulative sources.
	var fetches, misses uint64
	var sw float64
	for _, w := range series.Samples {
		fetches += w.Fetches
		misses += w.Misses
		sw += w.SwitchPJ
	}
	if fetches != f.acc || misses != f.miss || sw != f.sw {
		t.Errorf("window totals %d/%d/%v diverge from sources %d/%d/%v",
			fetches, misses, sw, f.acc, f.miss, f.sw)
	}
}

func TestSamplerValidation(t *testing.T) {
	f := &fakeRun{}
	if _, err := NewSampler(SamplerConfig{WindowCycles: 0, Energy: f, Access: f}); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewSampler(SamplerConfig{WindowCycles: 8}); err == nil {
		t.Error("missing sources accepted")
	}
}
