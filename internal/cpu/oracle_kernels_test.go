package cpu_test

import (
	"bytes"
	"testing"

	"powerfits/internal/cpu"
	"powerfits/internal/isa"
	"powerfits/internal/kernels"
	"powerfits/internal/program"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// These whole-suite tests hold the compiled and superblock executors
// to the reference interpreter (oracle_test.go) over every kernel's
// prepared ARM and FITS images. They live in the external test package
// so they can import internal/sim for Prepare, while Step and Run stay
// out of the production build.

// lockstepCompiled runs one program through the interpreter and the
// compiled micro-op table in lockstep over the given layout, asserting
// bit-identical architectural state after every instruction — the
// whole-application counterpart of lockstepCompare's per-program
// equivalence tests.
func lockstepCompiled(t *testing.T, tag string, p *program.Program, l cpu.Layout, c *cpu.Compiled) {
	t.Helper()
	if c == nil {
		t.Fatalf("%s: no compiled table", tag)
	}
	if c.Program() != p {
		t.Fatalf("%s: compiled table built from a different program", tag)
	}
	mi := cpu.New(p, l)
	mc := cpu.New(p, l)
	const budget = 2e8
	mi.MaxInstrs = budget
	mc.MaxInstrs = budget

	for !mi.Halted {
		ri, erri := mi.Step()
		rc, errc := mc.StepCompiled(c)
		if (erri == nil) != (errc == nil) {
			t.Fatalf("%s: instr %d: fault divergence: interpreted %v, compiled %v", tag, mi.InstrCount, erri, errc)
		}
		if erri != nil {
			if erri.Error() != errc.Error() {
				t.Fatalf("%s: fault identity:\ninterpreted: %v\ncompiled:    %v", tag, erri, errc)
			}
			return
		}
		if ri != rc {
			t.Fatalf("%s: instr %d: StepResult divergence: %+v vs %+v", tag, mi.InstrCount, ri, rc)
		}
		if mi.Regs != mc.Regs || mi.N != mc.N || mi.Z != mc.Z || mi.C != mc.C || mi.V != mc.V ||
			mi.PCIdx != mc.PCIdx || mi.Halted != mc.Halted {
			t.Fatalf("%s: instr %d: architectural divergence (interpreted PC %d, compiled PC %d)",
				tag, mi.InstrCount, mi.PCIdx, mc.PCIdx)
		}
	}
	if !bytes.Equal(mi.Mem, mc.Mem) {
		t.Fatalf("%s: memory divergence after run", tag)
	}
	if len(mi.Output) != len(mc.Output) {
		t.Fatalf("%s: output length divergence: %d vs %d", tag, len(mi.Output), len(mc.Output))
	}
	for i := range mi.Output {
		if mi.Output[i] != mc.Output[i] {
			t.Fatalf("%s: output[%d] divergence: %#x vs %#x", tag, i, mi.Output[i], mc.Output[i])
		}
	}
}

// TestCompiledMatchesStepAllKernels verifies, for every kernel in the
// suite and for both target images (ARM baseline and synthesized FITS),
// that the shared compiled tables built in Prepare execute every single
// dynamic instruction bit-identically to cpu.Machine.Step: registers,
// flags, memory, PC, halt state, outputs and fault strings.
func TestCompiledMatchesStepAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares and locksteps the full suite")
	}
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := sim.Prepare(k, 1, synth.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			lockstepCompiled(t, "ARM", s.Prog, cpu.ImageLayout(s.ArmImage), s.ArmCompiled)
			lockstepCompiled(t, "FITS", s.Fits.Lowered, cpu.ImageLayout(s.Fits.Image), s.FitsCompiled)
		})
	}
}

// TestLockstepEquivalence runs the ARM program and its FITS translation
// in lockstep and compares the full architectural state (r0–r11, sp,
// NZCV) at every original-instruction boundary — a much stronger
// statement than comparing final outputs. r12 (the translator's
// scratch) and lr (holds encoding-specific return addresses) are
// excluded by convention.
func TestLockstepEquivalence(t *testing.T) {
	for _, name := range []string{"crc32", "gsm", "susan_edges", "adpcm_enc", "patricia"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := sim.Prepare(kernels.MustGet(name), 1, synth.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}

			armM := cpu.New(s.Prog, cpu.ImageLayout(s.ArmImage))
			fitsM := cpu.New(s.Fits.Lowered, cpu.ImageLayout(s.Fits.Image))

			compare := func(step uint64, origIdx int) {
				for r := isa.R0; r <= isa.R11; r++ {
					if armM.Regs[r] != fitsM.Regs[r] {
						t.Fatalf("step %d (orig instr %d, %s): r%d = %#x vs %#x",
							step, origIdx, &s.Prog.Instrs[origIdx], r, armM.Regs[r], fitsM.Regs[r])
					}
				}
				if armM.Regs[isa.SP] != fitsM.Regs[isa.SP] {
					t.Fatalf("step %d: sp diverged %#x vs %#x", step, armM.Regs[isa.SP], fitsM.Regs[isa.SP])
				}
				if armM.N != fitsM.N || armM.Z != fitsM.Z || armM.C != fitsM.C || armM.V != fitsM.V {
					t.Fatalf("step %d (orig instr %d): flags diverged %v%v%v%v vs %v%v%v%v",
						step, origIdx, armM.N, armM.Z, armM.C, armM.V, fitsM.N, fitsM.Z, fitsM.C, fitsM.V)
				}
			}

			var steps uint64
			for !armM.Halted {
				origIdx := armM.PCIdx
				if _, err := armM.Step(); err != nil {
					t.Fatalf("arm step: %v", err)
				}
				steps++
				// Advance FITS until it reaches the lowered index of the
				// ARM machine's new position.
				wantIdx := s.Fits.OrigStart[armM.PCIdx]
				for guard := 0; fitsM.PCIdx != wantIdx || (armM.Halted != fitsM.Halted); guard++ {
					if guard > 8 {
						t.Fatalf("step %d: FITS did not converge to lowered idx %d (at %d)",
							steps, wantIdx, fitsM.PCIdx)
					}
					if fitsM.Halted {
						break
					}
					if _, err := fitsM.Step(); err != nil {
						t.Fatalf("fits step: %v", err)
					}
				}
				compare(steps, origIdx)
				if steps > 300000 {
					break // bounded lockstep window is plenty
				}
			}
			if armM.Halted != fitsM.Halted {
				t.Fatal("halt state diverged")
			}
			for i := range armM.Output {
				if armM.Output[i] != fitsM.Output[i] {
					t.Fatalf("output[%d] diverged", i)
				}
			}
		})
	}
}

// TestSuperblocksMatchStepAllKernels runs every kernel on both images
// to completion twice — once on the plain interpreter, once on the
// superblock executor — and asserts identical architectural state,
// outputs and DynCount profiles. This is the suite-level counterpart
// of superblockCompare's per-program equivalence tests, and the
// property the synthesis pipeline depends on when profiling over the
// fused executor.
func TestSuperblocksMatchStepAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite twice per image")
	}
	for _, k := range kernels.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			s, err := sim.Prepare(k, 1, synth.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			images := []struct {
				tag    string
				mk     func() *cpu.Machine
				comp   *cpu.Compiled
				instrs int
			}{
				{"ARM", func() *cpu.Machine { return cpu.New(s.Prog, cpu.ImageLayout(s.ArmImage)) }, s.ArmCompiled, len(s.Prog.Instrs)},
				{"FITS", func() *cpu.Machine { return cpu.New(s.Fits.Lowered, cpu.ImageLayout(s.Fits.Image)) }, s.FitsCompiled, len(s.Fits.Lowered.Instrs)},
			}
			for _, im := range images {
				mi := im.mk()
				ms := im.mk()
				mi.MaxInstrs = 2e8
				ms.MaxInstrs = 2e8
				mi.DynCount = make([]uint64, im.instrs)
				ms.DynCount = make([]uint64, im.instrs)
				erri := mi.Run()
				errs := ms.RunSuperblocks(im.comp)
				if (erri == nil) != (errs == nil) {
					t.Fatalf("%s: fault divergence: step %v, superblock %v", im.tag, erri, errs)
				}
				if erri != nil && erri.Error() != errs.Error() {
					t.Fatalf("%s: fault identity:\nstep:       %v\nsuperblock: %v", im.tag, erri, errs)
				}
				if mi.InstrCount != ms.InstrCount || mi.Halted != ms.Halted || mi.PCIdx != ms.PCIdx {
					t.Fatalf("%s: run shape divergence: step (n=%d halted=%v pc=%d), superblock (n=%d halted=%v pc=%d)",
						im.tag, mi.InstrCount, mi.Halted, mi.PCIdx, ms.InstrCount, ms.Halted, ms.PCIdx)
				}
				if mi.Regs != ms.Regs {
					t.Fatalf("%s: register divergence", im.tag)
				}
				if !bytes.Equal(mi.Mem, ms.Mem) {
					t.Fatalf("%s: memory divergence", im.tag)
				}
				for i := range mi.DynCount {
					if mi.DynCount[i] != ms.DynCount[i] {
						t.Fatalf("%s: DynCount[%d] = %d under superblocks, %d under Step",
							im.tag, i, ms.DynCount[i], mi.DynCount[i])
					}
				}
				if len(mi.Output) != len(ms.Output) {
					t.Fatalf("%s: output length divergence", im.tag)
				}
				for i := range mi.Output {
					if mi.Output[i] != ms.Output[i] {
						t.Fatalf("%s: output[%d] divergence", im.tag, i)
					}
				}
			}
		})
	}
}
