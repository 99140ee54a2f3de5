package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule on a sorted copy; +Inf entries (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// kernelTimes collects per-kernel durations over several passes.
type kernelTimes map[string][]float64

func (k kernelTimes) add(kernel string, ms float64) { k[kernel] = append(k[kernel], ms) }

// sum adds up each kernel's median across passes.
func (k kernelTimes) sum() float64 {
	t := 0.0
	for _, xs := range k {
		t += median(xs)
	}
	return t
}

// p50 is the median over kernels of each kernel's median across
// passes; one slow pass moves a kernel's median, not the figure.
func (k kernelTimes) p50() float64 {
	var meds []float64
	for _, xs := range k {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// timed returns f's wall-clock duration in seconds.
func timed(f func() error) (float64, error) {
	t := time.Now()
	err := f()
	return time.Since(t).Seconds(), err
}

// setupRepeats is how many times at least the batch workloads set up
// per run, and setupFloor the time the repeats fill at least: a set-up
// of a few milliseconds is repeated until its median is steady.
const (
	setupRepeats = 15
	setupFloor   = 500 * time.Millisecond
)

// medianSetup runs a workload's set-up n times, or more until the
// repeats fill setupFloor, and returns the median duration; the last set-up's state stays live for the measurement.
// Between repeats, untimed, reset tears the previous set-up down and
// the heap is collected, so a repeat pays neither for its
// predecessor's teardown nor for its garbage.
func medianSetup(n int, reset, f func() error) (float64, error) {
	var ds []float64
	t0 := time.Now()
	for i := 0; i < n || time.Since(t0) < setupFloor; i++ {
		if i > 0 {
			if err := reset(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		d, err := timed(f)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
	}
	return median(ds), nil
}

// digest hashes simulated statistics bit for bit.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
