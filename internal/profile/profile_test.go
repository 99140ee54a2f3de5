package profile

import (
	"reflect"
	"testing"

	"powerfits/internal/asm"
	"powerfits/internal/cpu"
	"powerfits/internal/isa"
	"powerfits/internal/isa/fits"
	"powerfits/internal/kernels"
	"powerfits/internal/program"
)

func buildLoop(t *testing.T) *Profile {
	t.Helper()
	b := asm.New("p")
	b.Words("tab", []uint32{1, 2, 3, 4})
	b.Func("main")
	b.Lea(isa.R1, "tab")
	b.MovI(isa.R2, 100)
	b.MovI(isa.R0, 0)
	b.Label("loop")
	b.AndI(isa.R3, isa.R2, 3)
	b.MemReg(isa.LDR, isa.R3, isa.R1, isa.R3, 2)
	b.Add(isa.R0, isa.R0, isa.R3)
	b.SubsI(isa.R2, isa.R2, 1)
	b.Bne("loop")
	b.EmitWord()
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(p, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestCollectCounts(t *testing.T) {
	prof := buildLoop(t)
	if prof.TotalStatic != uint64(len(prof.Prog.Instrs)) {
		t.Errorf("static = %d", prof.TotalStatic)
	}
	// The loop body runs 100 times.
	addSig := fits.Signature{Op: isa.ADD, Cond: isa.AL}
	st := prof.Sigs[addSig]
	if st == nil || st.Dyn != 100 || st.Static != 1 {
		t.Fatalf("add stats = %+v", st)
	}
	// Loop-closing SUBS counts rd == rn instances.
	subsSig := fits.Signature{Op: isa.SUB, Cond: isa.AL, SetFlags: true, OperandImm: true}
	if st := prof.Sigs[subsSig]; st == nil || st.RdEqRn.Dyn != 100 {
		t.Fatalf("subs rd==rn stats = %+v", st)
	}
	// Branch signature present.
	bne := fits.Signature{Op: isa.BC, Cond: isa.NE}
	if st := prof.Sigs[bne]; st == nil || st.Dyn != 100 {
		t.Fatalf("bne stats = %+v", st)
	}
	// Output captured as golden reference.
	if len(prof.Output) != 1 {
		t.Errorf("output = %v", prof.Output)
	}
}

func TestRankedRegs(t *testing.T) {
	prof := buildLoop(t)
	ranked := prof.RankedRegs()
	if len(ranked) != isa.NumRegs {
		t.Fatalf("ranked %d regs", len(ranked))
	}
	// r3 dominates the narrow operand positions (ALU operand 2 and
	// memory register offset, 300 dynamic uses).
	if ranked[0] != isa.R3 {
		t.Errorf("top narrow register = %s, want r3", ranked[0])
	}
	seen := map[isa.Reg]bool{}
	for _, r := range ranked {
		if seen[r] {
			t.Fatalf("register %s ranked twice", r)
		}
		seen[r] = true
	}
}

func TestRankedLits(t *testing.T) {
	b := asm.New("lits")
	b.Func("main")
	b.MovI(isa.R2, 10)
	b.Label("loop")
	b.Ldc(isa.R0, 0x11111111) // hot literal
	b.SubsI(isa.R2, isa.R2, 1)
	b.Bne("loop")
	b.Ldc(isa.R1, 0x22222222) // cold literal
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Collect(p, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	lits := prof.RankedLits()
	if len(lits) != 2 || lits[0] != 0x11111111 {
		t.Errorf("ranked literals = %x", lits)
	}
}

func TestRankedSigsDeterministic(t *testing.T) {
	prof := buildLoop(t)
	a := prof.RankedSigs()
	b := prof.RankedSigs()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ranking not deterministic at %d", i)
		}
	}
}

func TestBranchDisplacementHistogram(t *testing.T) {
	prof := buildLoop(t)
	var total uint64
	for _, c := range prof.BranchDisp {
		total += c.Static
	}
	if total != 1 { // the single bne
		t.Fatalf("histogram counted %d branches, want 1", total)
	}
	// The loop branch jumps back 4 instructions: needs few bits.
	if prof.DispCoverage(4) != 1 {
		t.Errorf("4-bit coverage = %f, want 1", prof.DispCoverage(4))
	}
	if prof.DispCoverage(1) != 0 {
		t.Errorf("1-bit coverage = %f, want 0", prof.DispCoverage(1))
	}
}

func TestSignedBits(t *testing.T) {
	cases := map[int64]int{0: 1, -1: 1, 1: 2, -2: 2, 3: 3, -4: 3, 127: 8, -128: 8, 128: 9}
	for v, want := range cases {
		if got := signedBits(v); got != want {
			t.Errorf("signedBits(%d) = %d, want %d", v, got, want)
		}
	}
}

// compiledProfile is the reference profile: the same run dispatched
// per instruction through RunCompiled instead of the fused superblock
// executor Collect uses.
func compiledProfile(p *program.Program, maxInstrs uint64) (*Profile, error) {
	l := cpu.WordLayout(p.TextBase, len(p.Instrs))
	m := cpu.New(p, l)
	m.MaxInstrs = maxInstrs
	m.DynCount = make([]uint64, len(p.Instrs))
	if err := m.RunCompiled(cpu.Compile(p, l)); err != nil {
		return nil, err
	}
	return build(p, m.DynCount, m.Output), nil
}

// TestCollectMatchesCompiled pins the profiling executor: Collect's
// superblock run yields the compiled path's profile for every kernel at
// scale 1, and an exhausted budget fails with the same error.
func TestCollectMatchesCompiled(t *testing.T) {
	for _, k := range kernels.All() {
		p := k.Build(1)
		got, err := Collect(p, 2e9)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		want, err := compiledProfile(p, 2e9)
		if err != nil {
			t.Fatalf("%s: reference: %v", k.Name, err)
		}
		if !reflect.DeepEqual(got.Dyn, want.Dyn) || !reflect.DeepEqual(got.Output, want.Output) ||
			got.TotalDyn != want.TotalDyn || got.TotalStatic != want.TotalStatic {
			t.Errorf("%s: superblock profile diverges from the compiled path (dyn %d vs %d)",
				k.Name, got.TotalDyn, want.TotalDyn)
		}
	}
	p := kernels.MustGet("crc32").Build(1)
	_, gerr := Collect(p, 1000)
	_, werr := compiledProfile(p, 1000)
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Errorf("budget exhaustion: superblock error %v, compiled error %v", gerr, werr)
	}
}
