package cpu

import (
	"math"

	"powerfits/internal/isa"
	"powerfits/internal/tracing"
)

// This file is the superblock layer on top of the compiled micro-op
// table: straight-line runs of unconditional, non-control-flow micro-ops
// are chained into fused superblocks, and runSuperblocks hands each one
// to exec — the same execute body stepCompiled uses — in a single call.
// Within a fused block there is no halt check, no budget check, no
// condition check, no PC store and no per-instruction InstrCount update
// — all of that bookkeeping amortizes over the whole block and is
// settled once at the block boundary. Fall-back to the per-µop
// stepCompiled loop happens at block boundaries, on faults and at every
// control-flow exit, so execution remains bit-identical to the
// reference interpreter in this package's tests (pinned by the
// lockstep and fuzz tests and the unchanged golden tables).
//
// Block formation is a single backward pass producing, per instruction
// index, the length of the fusible straight-line run *starting* there.
// Because the length is valid for entry at any index — a branch into
// the middle of a run simply starts a shorter block — the classic
// "no branches in" superblock side condition needs no explicit
// side-entrance analysis.

// maxFuseLen caps recorded run lengths so they fit the uint16 fuse
// table. A longer run simply splits into several fused blocks.
const maxFuseLen = math.MaxUint16

// fusibleKind reports whether a micro-op kind may live inside a fused
// block. Control flow (B/BL/BX), halting and always-faulting kinds end
// a block; memory kinds stay fusible because a fault mid-block is
// settled with exact per-µop semantics (fusedFault).
func fusibleKind(k uint8) bool {
	switch k {
	case kBad, kB, kBL, kBX, kSwiHalt, kSwiBad:
		return false
	}
	return true
}

// buildFuse computes the superblock run-length table for a compiled
// program: fuse[i] is the number of consecutive micro-ops starting at i
// that can execute as one fused block (0 when instruction i itself is
// not fusible).
func buildFuse(uops []uop) []uint16 {
	fuse := make([]uint16, len(uops))
	for i := len(uops) - 1; i >= 0; i-- {
		u := &uops[i]
		if u.Cond != uint8(isa.AL) || !fusibleKind(u.Kind) {
			continue // fuse[i] stays 0
		}
		n := uint32(1)
		if i+1 < len(uops) {
			n += uint32(fuse[i+1])
		}
		if n > maxFuseLen {
			n = maxFuseLen
		}
		fuse[i] = uint16(n)
	}
	return fuse
}

// RunSuperblocks executes until the program halts or the budget is
// exhausted, dispatching fused superblocks where the program structure
// allows and falling back to the per-µop compiled path everywhere else.
// Semantics are bit-identical to RunCompiled and to the reference
// interpreter: same architectural state, same DynCount profile, same
// fault errors at the same instruction.
func (m *Machine) RunSuperblocks(c *Compiled) error {
	if err := c.check(m); err != nil {
		return err
	}
	return m.runSuperblocks(c, math.MaxUint64, nil)
}

// RunSuperblocksN is RunSuperblocks bounded to at most n further
// instructions: it returns with the machine stopped at an exact
// instruction boundary once InstrCount has advanced by n (or the
// program halts, whichever comes first). The sampled timing simulator
// uses it to fast-forward between measured windows.
//
// A non-nil touch is the fetch-stream witness: it is called with the
// instruction-address range [lo, hi) of every executed batch (one fused
// block, or one instruction on the fallback path). The sampled
// simulator uses it to keep the I-cache warm across fast-forwards —
// without it, every measured window would start from an artificially
// cold cache and the extrapolated miss counts would be badly biased
// (the classic functional-warming requirement of sampled simulation).
//
// A non-nil sink receives one KindSuperblock event per executed batch,
// carrying the machine's InstrCount at entry in Cycle (functional
// execution has no cycle clock), the batch's first encoded address in
// PC and its encoded length in Payload. With a nil sink no closure is
// built, so the fast-forward hot path pays nothing for tracing.
func (m *Machine) RunSuperblocksN(c *Compiled, n uint64, touch func(lo, hi uint32), sink tracing.EventSink) error {
	if err := c.check(m); err != nil {
		return err
	}
	if n > math.MaxUint64-m.InstrCount {
		n = math.MaxUint64 - m.InstrCount
	}
	if sink != nil {
		witness := touch
		touch = func(lo, hi uint32) {
			if witness != nil {
				witness(lo, hi)
			}
			sink.Emit(tracing.Event{
				Cycle: m.InstrCount, PC: lo,
				Payload: hi - lo, Kind: tracing.KindSuperblock,
			})
		}
	}
	return m.runSuperblocks(c, m.InstrCount+n, touch)
}

// runSuperblocks is the dispatch loop: fused blocks when a whole block
// fits the remaining instruction budget, inline handling for the hot
// unconditional block exits (B, BL, SWI-halt, and either direction of a
// conditional B), and stepCompiled for everything else (predicated ops,
// BX, bad ops, budget exhaustion and out-of-range PCs — so every error
// message stays byte-identical to the per-µop path).
//
// A fused block goes to exec, the execute body stepCompiled also uses,
// in one call and with all per-instruction bookkeeping stripped: every
// micro-op in it is unconditional and non-control-flow and the block
// fits the budget, so the DynCount profile is settled for the whole
// block up front (rolled back on fault) and InstrCount and the PC
// advance once at the end.
func (m *Machine) runSuperblocks(c *Compiled, target uint64, touch func(lo, hi uint32)) error {
	uops := c.uops
	fuse := c.fuse
	dyn := m.DynCount
	for !m.Halted && m.InstrCount < target {
		idx := m.PCIdx
		if idx < 0 || idx >= len(uops) {
			if _, err := m.stepCompiled(c); err != nil {
				return err
			}
			continue
		}
		rem := target - m.InstrCount
		if m.MaxInstrs > 0 {
			if m.InstrCount >= m.MaxInstrs {
				// Let stepCompiled produce the canonical budget error.
				if _, err := m.stepCompiled(c); err != nil {
					return err
				}
				continue
			}
			if br := m.MaxInstrs - m.InstrCount; br < rem {
				rem = br
			}
		}
		n := int(fuse[idx])
		fused := n > 0 && uint64(n) <= rem
		if touch != nil {
			// Witness the fetch range of whatever executes next: the
			// whole fused block when one is about to run, else the
			// single fallback instruction.
			last := idx
			if fused {
				last = idx + n - 1
			}
			touch(c.addrs[idx], c.ends[last])
		}
		if fused {
			block := uops[idx : idx+n : idx+n]
			if dyn != nil {
				for j := range block {
					dyn[idx+j]++
				}
			}
			if j := m.exec(block); j < n {
				return m.fusedFault(c, idx, j, n, dyn, m.execFault(&block[j]))
			}
			m.InstrCount += uint64(n)
			m.PCIdx = idx + n
			continue
		}
		// rem >= 1 here, so one inline instruction is always within
		// budget. The hot exits avoid a stepCompiled call per block.
		u := &uops[idx]
		switch u.Kind {
		case kB:
			m.InstrCount++
			if dyn != nil {
				dyn[idx]++
			}
			if u.Cond == uint8(isa.AL) || m.CondHolds(isa.Cond(u.Cond)) {
				m.PCIdx = int(u.Aux)
			} else {
				m.PCIdx = idx + 1
			}
			continue
		case kBL:
			if u.Cond == uint8(isa.AL) {
				m.InstrCount++
				if dyn != nil {
					dyn[idx]++
				}
				m.Regs[isa.LR] = u.Imm
				m.PCIdx = int(u.Aux)
				continue
			}
		case kSwiHalt:
			if u.Cond == uint8(isa.AL) {
				m.InstrCount++
				if dyn != nil {
					dyn[idx]++
				}
				m.Halted = true
				m.PCIdx = idx
				continue
			}
		}
		if _, err := m.stepCompiled(c); err != nil {
			return err
		}
	}
	return nil
}

// fusedFault settles the partial block state exactly as the per-µop
// path would have left it — the j completed micro-ops plus the faulting
// one are counted (the optimistic whole-block DynCount update is rolled
// back for the micro-ops the fault prevented), the PC rests on the
// faulting instruction — and returns the identical ExecError.
func (m *Machine) fusedFault(c *Compiled, idx, j, n int, dyn []uint64, detail string) error {
	if dyn != nil {
		for k := j + 1; k < n; k++ {
			dyn[idx+k]--
		}
	}
	m.InstrCount += uint64(j) + 1
	m.PCIdx = idx + j
	return c.fault(idx+j, detail)
}
