package cpu_test

import (
	"testing"

	"powerfits/internal/cpu"
	"powerfits/internal/kernels"
	"powerfits/internal/program"
)

// benchMachineRun measures the functional machine end to end over the
// crc32 kernel with machine construction outside the timer, so ns/op
// is one full program run and allocs/op must be exactly 0 on every
// execution path (Machine.Output is pre-sized; the fault path builds
// nothing until a fault actually fires).
func benchMachineRun(b *testing.B, p *program.Program, l cpu.Layout, run func(*cpu.Machine) error) {
	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := cpu.New(p, l)
		m.MaxInstrs = 2e9
		m.Output = make([]uint32, 0, 64)
		b.StartTimer()
		if err := run(m); err != nil {
			b.Fatal(err)
		}
		instrs += m.InstrCount
	}
	b.StopTimer()
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkMachineSteadyState is the functional machine's instrs/sec
// benchmark trio: the test-only reference interpreter (Step, see
// oracle_test.go), the per-µop compiled loop (RunCompiled, DESIGN.md
// §10), and the superblock-fused executor (RunSuperblocks, DESIGN.md
// §11). ci.sh runs it with -benchtime=1x asserting 0 allocs/op on all
// three paths, and `fitsbench -pipebench` records the two production
// paths in BENCH_pipeline.json.
func BenchmarkMachineSteadyState(b *testing.B) {
	p := kernels.MustGet("crc32").Build(1)
	l := cpu.WordLayout(p.TextBase, len(p.Instrs))
	c := cpu.Compile(p, l)
	b.Run("Interpreted", func(b *testing.B) {
		benchMachineRun(b, p, l, (*cpu.Machine).Run)
	})
	b.Run("Compiled", func(b *testing.B) {
		benchMachineRun(b, p, l, func(m *cpu.Machine) error { return m.RunCompiled(c) })
	})
	b.Run("Superblock", func(b *testing.B) {
		benchMachineRun(b, p, l, func(m *cpu.Machine) error { return m.RunSuperblocks(c) })
	})
}
