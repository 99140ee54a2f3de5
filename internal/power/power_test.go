package power

import (
	"math"
	"math/rand"
	"testing"

	"powerfits/internal/cache"
)

func testMeter(t *testing.T, geom cache.Config) (*Meter, Calibration) {
	t.Helper()
	cal := DefaultCalibration()
	m, err := NewMeter(geom, cal)
	if err != nil {
		t.Fatal(err)
	}
	return m, cal
}

func TestMeterAccounting(t *testing.T) {
	geom := cache.SA1100ICache()
	m, cal := testMeter(t, geom)
	kb := float64(geom.SizeBytes) / 1024

	// 10 idle cycles: internal and leakage accrue, no switching.
	for i := 0; i < 10; i++ {
		m.Tick()
	}
	r := m.Report()
	if r.SwitchingPJ != 0 {
		t.Errorf("idle switching = %f", r.SwitchingPJ)
	}
	wantInt := 10 * (cal.InternalBasePJ + cal.InternalPJPerKB*kb)
	if math.Abs(r.InternalPJ-wantInt) > 1e-6 {
		t.Errorf("internal = %f, want %f", r.InternalPJ, wantInt)
	}
	wantLeak := 10 * cal.LeakPJPerKBCycle * kb
	if math.Abs(r.LeakagePJ-wantLeak) > 1e-6 {
		t.Errorf("leakage = %f, want %f", r.LeakagePJ, wantLeak)
	}
	if r.Cycles != 10 {
		t.Errorf("cycles = %d", r.Cycles)
	}
}

func TestMeterAccessEnergy(t *testing.T) {
	m, cal := testMeter(t, cache.SA1100ICache())
	// One 4-byte hit access: fixed 50% activity + address toggles from 0.
	m.Access(0x0, []byte{1, 2, 3, 4}, false)
	m.Tick()
	r := m.Report()
	wantSw := cal.SwitchPJPerBit * 16 // 32 bits × 0.5, addr unchanged
	if math.Abs(r.SwitchingPJ-wantSw) > 1e-6 {
		t.Errorf("switching = %f, want %f", r.SwitchingPJ, wantSw)
	}
	if r.Accesses != 1 || r.Misses != 0 {
		t.Errorf("access counts wrong: %+v", r)
	}

	// A miss adds the line-fill energy to the internal component.
	before := m.Report().InternalPJ
	m.Access(0x40, []byte{0, 0, 0, 0}, true)
	m.Tick()
	r = m.Report()
	fill := cal.FillPJPerBit * float64(cache.SA1100ICache().LineBytes*8)
	gotFill := r.InternalPJ - before - (cal.InternalBasePJ + cal.InternalPJPerKB*16)
	if math.Abs(gotFill-fill) > 1e-6 {
		t.Errorf("fill energy = %f, want %f", gotFill, fill)
	}
}

func TestHammingMode(t *testing.T) {
	cal := DefaultCalibration()
	cal.UseHamming = true
	m, err := NewMeter(cache.SA1100ICache(), cal)
	if err != nil {
		t.Fatal(err)
	}
	m.Access(0, []byte{0xFF, 0, 0, 0}, false) // 8 toggles from zero state
	m.Tick()
	if got, want := m.Report().SwitchingPJ, cal.SwitchPJPerBit*8; math.Abs(got-want) > 1e-6 {
		t.Errorf("hamming switching = %f, want %f", got, want)
	}
	m.Access(0, []byte{0xFF, 0, 0, 0}, false) // identical: 0 toggles
	m.Tick()
	if got, want := m.Report().SwitchingPJ, cal.SwitchPJPerBit*8; math.Abs(got-want) > 1e-6 {
		t.Errorf("repeated block must not toggle: %f != %f", got, want)
	}
}

// TestDefaultModeIgnoresContents pins the fast path: with UseHamming
// off (the default) the switching energy depends only on the delivered
// width and the address, never on the block bytes.
func TestDefaultModeIgnoresContents(t *testing.T) {
	a, _ := testMeter(t, cache.SA1100ICache())
	b, _ := testMeter(t, cache.SA1100ICache())
	for i := 0; i < 64; i++ {
		addr := uint32(i * 4)
		a.Access(addr, []byte{0, 0, 0, 0}, false)
		b.Access(addr, []byte{byte(i), 0xFF, byte(i >> 3), 0xA5}, false)
		a.Tick()
		b.Tick()
	}
	if ra, rb := a.Report(), b.Report(); ra != rb {
		t.Errorf("default-mode reports differ with block contents:\n%+v\n%+v", ra, rb)
	}
}

// TestAccessWidthCap pins the 16-byte output-bus cap for oversized
// blocks in both switching models.
func TestAccessWidthCap(t *testing.T) {
	m, cal := testMeter(t, cache.SA1100ICache())
	m.Access(0, make([]byte, 32), false) // capped at 16 bytes = 128 bits
	m.Tick()
	if got, want := m.Report().SwitchingPJ, cal.SwitchPJPerBit*64; math.Abs(got-want) > 1e-6 {
		t.Errorf("oversized block switching = %f, want %f", got, want)
	}

	cal2 := DefaultCalibration()
	cal2.UseHamming = true
	h, err := NewMeter(cache.SA1100ICache(), cal2)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 32)
	for i := range big {
		big[i] = 0xFF
	}
	h.Access(0, big, false) // only the first 16 bytes toggle
	h.Tick()
	if got, want := h.Report().SwitchingPJ, cal2.SwitchPJPerBit*128; math.Abs(got-want) > 1e-6 {
		t.Errorf("hamming oversized block switching = %f, want %f", got, want)
	}
}

func TestSizeScaling(t *testing.T) {
	m16, _ := testMeter(t, cache.SA1100ICache())
	m8, _ := testMeter(t, cache.SA1100ICacheHalf())
	for i := 0; i < 100; i++ {
		m16.Tick()
		m8.Tick()
	}
	r16, r8 := m16.Report(), m8.Report()
	if r8.LeakagePJ*2 != r16.LeakagePJ {
		t.Errorf("leakage must scale with size: %f vs %f", r8.LeakagePJ, r16.LeakagePJ)
	}
	if r8.InternalPJ >= r16.InternalPJ {
		t.Errorf("internal must shrink with size: %f vs %f", r8.InternalPJ, r16.InternalPJ)
	}
}

func TestPeakWindow(t *testing.T) {
	m, cal := testMeter(t, cache.SA1100ICache())
	// 100 idle cycles, then a burst of 8 access cycles.
	for i := 0; i < 100; i++ {
		m.Tick()
	}
	for i := 0; i < 8; i++ {
		m.Access(uint32(i*4), []byte{1, 2, 3, 4}, false)
		m.Tick()
	}
	r := m.Report()
	idle := cal.InternalBasePJ + cal.InternalPJPerKB*16 + cal.LeakPJPerKBCycle*16
	idleW := idle * 1e-12 * cal.FreqHz
	if r.PeakPowerW <= idleW {
		t.Errorf("peak %f not above idle %f", r.PeakPowerW, idleW)
	}
	if avg := r.AvgPowerW(); r.PeakPowerW <= avg {
		t.Errorf("peak %f not above average %f", r.PeakPowerW, avg)
	}
}

// TestPeakMatchesNaiveWindow checks the meter's running window against
// a reference that re-sums every window from the per-cycle energies, for
// runs shorter than, equal to and longer than the peak window. The
// default calibration's coefficients are dyadic, so both sums are exact
// and must agree bit for bit.
func TestPeakMatchesNaiveWindow(t *testing.T) {
	geom := cache.SA1100ICacheHalf()
	kb := float64(geom.SizeBytes) / 1024
	for _, window := range []int{1, 3, 8} {
		cal := DefaultCalibration()
		cal.PeakWindow = window
		idle := (cal.InternalBasePJ + cal.InternalPJPerKB*kb) + cal.LeakPJPerKBCycle*kb
		for _, n := range []int{1, window - 1, window, window + 1, 5*window + 3, 200} {
			if n <= 0 {
				continue
			}
			m := MustNewMeter(geom, cal)
			rng := rand.New(rand.NewSource(int64(100*window + n)))
			cycles := make([]float64, n)
			for c := range cycles {
				for k := rng.Intn(3); k > 0; k-- {
					m.Access(rng.Uint32()&^3, []byte{1, 2, 3, 4}, rng.Intn(8) == 0)
					cycles[c] += m.LastAccessPJ()
				}
				cycles[c] += idle
				m.Tick()
			}
			w := min(n, window)
			var peak float64
			for end := w; end <= n; end++ {
				var sum float64
				for _, e := range cycles[end-w : end] {
					sum += e
				}
				peak = max(peak, sum)
			}
			want := peak / float64(w) * 1e-12 * cal.FreqHz
			if got := m.Report().PeakPowerW; got != want {
				t.Errorf("window %d, %d cycles: peak %v W, naive %v W", window, n, got, want)
			}
		}
	}
}

func TestShareSumsToOne(t *testing.T) {
	m, _ := testMeter(t, cache.SA1100ICache())
	for i := 0; i < 50; i++ {
		m.Access(uint32(i*4), []byte{1, 2, 3, 4}, i%10 == 0)
		m.Tick()
	}
	sw, in, lk := m.Report().Share()
	if math.Abs(sw+in+lk-1) > 1e-9 {
		t.Errorf("shares sum to %f", sw+in+lk)
	}
}

func TestSaving(t *testing.T) {
	if got := Saving(100, 60); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Saving = %f", got)
	}
	if got := Saving(100, 150); math.Abs(got+0.5) > 1e-12 {
		t.Errorf("negative saving = %f", got)
	}
	if Saving(0, 10) != 0 {
		t.Error("zero baseline must not divide")
	}
}

func TestChipModel(t *testing.T) {
	m, _ := testMeter(t, cache.SA1100ICache())
	for i := 0; i < 1000; i++ {
		m.Access(uint32(i*4), []byte{byte(i), 2, 3, 4}, false)
		m.Tick()
	}
	r := m.Report()
	cm := DefaultChipModel()
	chip := cm.ChipPJ(r)
	share := r.TotalPJ() / chip
	if share < 0.2 || share > 0.35 {
		t.Errorf("I-cache share of chip = %.3f, want ≈ 0.27", share)
	}
}

func TestValidation(t *testing.T) {
	cal := DefaultCalibration()
	cal.FreqHz = 0
	if _, err := NewMeter(cache.SA1100ICache(), cal); err == nil {
		t.Error("zero frequency accepted")
	}
	cal = DefaultCalibration()
	cal.PeakWindow = 0
	if _, err := NewMeter(cache.SA1100ICache(), cal); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewMeter(cache.Config{SizeBytes: 3}, DefaultCalibration()); err == nil {
		t.Error("bad geometry accepted")
	}
}
