package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the reference model the production Cache is checked
// against: one struct per way, a linear scan for hits, and a victim
// scan preferring the last invalid way, else the least recent one. It
// keeps no memo, so every access walks its set.
type refCache struct {
	sets                [][]refWay
	stamp               uint64
	lineShift, setShift uint
	setMask             uint32
	stats               Stats
}

type refWay struct {
	tag   uint32
	valid bool
	lru   uint64
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.Sets()
	r := &refCache{sets: make([][]refWay, nsets), setMask: uint32(nsets - 1)}
	for i := range r.sets {
		r.sets[i] = make([]refWay, cfg.Assoc)
	}
	for s := 1; s < cfg.LineBytes; s <<= 1 {
		r.lineShift++
	}
	for s := 1; s < nsets; s <<= 1 {
		r.setShift++
	}
	return r
}

func (r *refCache) Access(addr uint32) bool {
	r.stamp++
	r.stats.Accesses++
	line := addr >> r.lineShift
	set := r.sets[line&r.setMask]
	tag := line >> r.setShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = r.stamp
			return true
		}
	}
	victim, victimLRU := 0, ^uint64(0)
	for i := range set {
		if !set[i].valid {
			victim, victimLRU = i, 0
		} else if set[i].lru < victimLRU {
			victim, victimLRU = i, set[i].lru
		}
	}
	r.stats.Misses++
	set[victim] = refWay{tag: tag, valid: true, lru: r.stamp}
	return false
}

func (r *refCache) Contains(addr uint32) bool {
	line := addr >> r.lineShift
	for _, w := range r.sets[line&r.setMask] {
		if w.valid && w.tag == line>>r.setShift {
			return true
		}
	}
	return false
}

func (r *refCache) Reset() {
	for _, set := range r.sets {
		clear(set)
	}
	r.stats = Stats{}
	r.stamp = 0
}

// oracleGeometries covers direct-mapped, 2-way, the paper's two 32-way
// caches, fully associative, and the extreme line sizes (including
// 1-byte lines, whose tags span all 32 address bits).
var oracleGeometries = []Config{
	{SizeBytes: 1024, LineBytes: 32, Assoc: 1},
	{SizeBytes: 2048, LineBytes: 32, Assoc: 2},
	SA1100ICache(),
	SA1100ICacheHalf(),
	{SizeBytes: 1024, LineBytes: 32, Assoc: 32},
	{SizeBytes: 1024, LineBytes: 4, Assoc: 4},
	{SizeBytes: 4096, LineBytes: 64, Assoc: 8},
	{SizeBytes: 64, LineBytes: 1, Assoc: 64},
}

// oracleOp is one step of a stream: an Access, a Contains probe, or a
// Reset.
type oracleOp struct {
	kind byte // 'a', 'c' or 'r'
	addr uint32
}

// oracleStreams builds the seeded access streams for one geometry.
func oracleStreams(cfg Config, seed int64) map[string][]oracleOp {
	rng := rand.New(rand.NewSource(seed))
	const n = 20000
	size := uint32(cfg.SizeBytes)
	base := uint32(0x8000) + uint32(rng.Intn(1<<12))*4
	acc := func(a uint32) oracleOp { return oracleOp{'a', a} }
	streams := map[string][]oracleOp{}

	// Straight-line fetch with occasional taken branches.
	var seq []oracleOp
	pc := base
	for len(seq) < n {
		seq = append(seq, acc(pc))
		pc += 4
		if rng.Intn(16) == 0 {
			pc = base + uint32(rng.Intn(int(4*size)))&^3
		}
	}
	streams["sequential"] = seq

	// A loop body one and a half times the capacity: LRU thrashes.
	var loop []oracleOp
	for len(loop) < n {
		for a := base; a < base+size+size/2 && len(loop) < n; a += 4 {
			loop = append(loop, acc(a))
		}
	}
	streams["loop"] = loop

	// Uniform over four capacities, plus the address-space extremes.
	var random []oracleOp
	for len(random) < n {
		switch rng.Intn(64) {
		case 0:
			random = append(random, acc(0))
		case 1:
			random = append(random, acc(^uint32(0)))
		default:
			random = append(random, acc(base+uint32(rng.Intn(int(4*size)))))
		}
	}
	streams["random"] = random

	// Fetch runs interleaved with Contains probes and rare Resets.
	var mix []oracleOp
	pc = base
	for len(mix) < n {
		switch r := rng.Intn(100); {
		case r == 0:
			mix = append(mix, oracleOp{kind: 'r'})
		case r < 10:
			mix = append(mix, oracleOp{'c', base + uint32(rng.Intn(int(2*size)))})
		case r < 15:
			// Low addresses carry tag 0, the tag of every invalid way.
			mix = append(mix, oracleOp{'c', uint32(rng.Intn(int(2 * size)))})
		case r < 25:
			pc = base + uint32(rng.Intn(int(2*size)))&^3
			mix = append(mix, acc(pc))
		default:
			pc += 4
			mix = append(mix, acc(pc))
		}
	}
	streams["mixed"] = mix
	return streams
}

// TestAccessMatchesReference drives the production cache and the
// reference model with identical streams and requires the same hit/miss
// answer, Contains answer and statistics after every step.
func TestAccessMatchesReference(t *testing.T) {
	for gi, cfg := range oracleGeometries {
		for name, ops := range oracleStreams(cfg, int64(gi)+1) {
			t.Run(fmt.Sprintf("%dB-%dB-%dway/%s", cfg.SizeBytes, cfg.LineBytes, cfg.Assoc, name), func(t *testing.T) {
				c, ref := MustNew(cfg), newRefCache(cfg)
				for i, op := range ops {
					switch op.kind {
					case 'a':
						if got, want := c.Access(op.addr), ref.Access(op.addr); got != want {
							t.Fatalf("step %d: Access(%#x) = %v, reference %v", i, op.addr, got, want)
						}
					case 'c':
						if got, want := c.Contains(op.addr), ref.Contains(op.addr); got != want {
							t.Fatalf("step %d: Contains(%#x) = %v, reference %v", i, op.addr, got, want)
						}
					case 'r':
						c.Reset()
						ref.Reset()
					}
					if c.Stats() != ref.stats {
						t.Fatalf("step %d: stats %+v, reference %+v", i, c.Stats(), ref.stats)
					}
				}
			})
		}
	}
}
