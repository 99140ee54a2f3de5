package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"powerfits/internal/kernels"
	"powerfits/internal/synth"
)

// benchmarkFile mirrors the keys of BENCHMARK.json the code depends on.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return &b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every metric the code prints is declared in BENCHMARK.json with the
// same unit, direction and bound, and the other way round.
func TestDeclarationsMatchBenchmark(t *testing.T) {
	b := readBenchmark(t)
	check := func(kind string, code, file []metricDecl) {
		if len(code) != len(file) {
			t.Fatalf("%s: code declares %d metrics, BENCHMARK.json %d", kind, len(code), len(file))
		}
		for i := range code {
			if code[i] != file[i] {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", kind, i, code[i], file[i])
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
}

// Names are well-formed and unique across workloads and metrics; every
// end-to-end metric has a bound in (0, 0.25]; every span layer
// has a self-time metric.
func TestNamesWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	add := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		add(w.name)
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		add(d.Name)
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
		if d.Unit == "" {
			t.Errorf("%s: no unit", d.Name)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, s := range layerSpans {
		if !seen[s+"_s"] {
			t.Errorf("span %q has no declared %s_s metric", s, s)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
}

// The same seed yields a byte-identical request schedule; another seed
// a different one; the mix has its stated shape.
func TestScheduleDeterministic(t *testing.T) {
	gen := func(seed int64) []byte {
		m, err := newMix()
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.schedule(seed, 400, 4000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := gen(7), gen(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if bytes.Equal(a, gen(8)) {
		t.Fatal("different seeds, same schedule")
	}

	m, err := newMix()
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.schedule(7, 400, 4000)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[reqKind]int{}
	pairs := 0
	for i, e := range s {
		kinds[e.Kind]++
		if i > 0 && e.Due < s[i-1].Due {
			t.Fatalf("entry %d due before its predecessor", i)
		}
		if e.Kind == kindCoalesce && i > 0 && s[i-1].Kind == kindCoalesce && s[i-1].Due == e.Due {
			if !bytes.Equal(s[i-1].Body, e.Body) {
				t.Fatalf("coalesce pair at %d carries different bodies", i)
			}
			pairs++
		}
	}
	n := float64(len(s) - pairs)
	if n != 4000 || pairs == 0 {
		t.Errorf("%v arrivals and %d pairs, want 4000 arrivals and some pairs", n, pairs)
	}
	if end := s[len(s)-1].Due; end < 9*time.Second || end > 11*time.Second {
		t.Errorf("4000 arrivals at 400/s end at %v", end)
	}
	if hot := float64(kinds[kindHot]) / n; hot < 0.88 || hot > 0.92 {
		t.Errorf("hot share %.3f, want about 0.9", hot)
	}
	if kinds[kindAsm] == 0 || kinds[kindCoalesce] == 0 {
		t.Errorf("mix lacks asm (%d) or coalesced (%d) requests", kinds[kindAsm], kinds[kindCoalesce])
	}
}

// Every cold request in a run is a new synthesis identity.
func TestColdRequestsAreFresh(t *testing.T) {
	m, err := newMix()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for round := 0; round < 2; round++ {
		s, err := m.schedule(1, 400, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range s {
			if e.Kind == kindHot || (e.Kind == kindCoalesce && i > 0 && bytes.Equal(s[i-1].Body, e.Body)) {
				continue
			}
			if seen[string(e.Body)] {
				t.Fatalf("cold request repeated: %s", e.Body[:60])
			}
			seen[string(e.Body)] = true
		}
		for _, r := range m.coldBatch() {
			b, _ := json.Marshal(r)
			if seen[string(b)] {
				t.Fatalf("cold batch request repeated: %s", b)
			}
			seen[string(b)] = true
		}
	}
}

// syntheticRung models a daemon with the given capacity: latency low
// below it, a growing backlog above it.
func syntheticRung(capacity float64) func(float64) rung {
	return func(rate float64) rung {
		if rate <= capacity {
			return rung{rate: rate, p99: 40 + 200*rate/capacity}
		}
		return rung{rate: rate, p99: 900, backlog: true}
	}
}

func TestCapacitySearch(t *testing.T) {
	resolution := math.Pow(ladderStep, 1/math.Pow(2, bisectSteps))
	for _, capacity := range []float64{300, 640, 900, 1500} {
		var calls int
		rungs := climb(func(r float64) rung { calls++; return syntheticRung(capacity)(r) },
			func() bool { return true })
		got := maxRate(rungs)
		if got > capacity || got < capacity/resolution/1.0001 {
			t.Errorf("capacity %v: max_rps %v, want within [%v, %v] after %d rungs",
				capacity, got, capacity/resolution, capacity, calls)
		}
		if calls > ladderRungs {
			t.Errorf("capacity %v: %d rungs", capacity, calls)
		}
	}
	// A latency limit crossed before any backlog counts as a failure.
	rungs := climb(func(r float64) rung {
		return rung{rate: r, p99: latencyLimitMs * r / 800}
	}, func() bool { return true })
	if got := maxRate(rungs); got > 800 || got < 800/resolution/1.0001 {
		t.Errorf("latency-bound capacity 800: max_rps %v", got)
	}
	// Out of time: the best rate measured so far stands.
	n := 0
	rungs = climb(syntheticRung(900), func() bool { n++; return n <= 2 })
	if len(rungs) != 2 || maxRate(rungs) != ladderBase*ladderStep {
		t.Errorf("two rungs allowed: got %d rungs, max_rps %v", len(rungs), maxRate(rungs))
	}
	if got := maxRate(nil); got != 0 {
		t.Errorf("no rungs: max_rps %v", got)
	}
}

// A failed or refused request counts against the failure count and as
// missing the latency limit.
func TestFailedRequestMissesLimit(t *testing.T) {
	var samples []sample
	for i := 0; i < 200; i++ {
		samples = append(samples, sample{kind: kindCold, due: 0, sent: time.Millisecond,
			done: 5 * time.Millisecond, status: http.StatusOK, body: []byte(`{}`)})
	}
	r := measureRung(500, samples)
	if !r.passes() {
		t.Fatalf("clean rung fails: %+v", r)
	}
	samples[10].status = http.StatusTooManyRequests
	if !math.IsInf(samples[10].latencyMs(), 1) {
		t.Fatal("a refused request has a finite latency")
	}
	r = measureRung(500, samples)
	if r.failed != 1 || r.passes() {
		t.Fatalf("rung with a refused request: %+v", r)
	}
	for i := 0; i < 3; i++ {
		samples[20+i].err = http.ErrHandlerTimeout
	}
	if r = measureRung(500, samples); !math.IsInf(r.p99, 1) {
		t.Fatalf("2%% failed requests leave p99 at %v", r.p99)
	}
	o := newOutcome()
	if failed := checkSamples(o, "test", samples, nil); failed != 4 {
		t.Fatalf("checkSamples counted %d failures, want 4", failed)
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := make([]float64, 400)
	rising := make([]float64, 400)
	for i := range flat {
		flat[i] = 2
		rising[i] = float64(i)
	}
	if growing(flat) {
		t.Error("flat waits reported as a growing backlog")
	}
	if !growing(rising) {
		t.Error("waits rising to 400 ms not reported as a growing backlog")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Errorf("max %v", q)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

// Self times add up to the covered time, and reconcile passes a
// well-formed ledger and gates an undeclared span.
func TestLedgerReconciles(t *testing.T) {
	tr := newTracer()
	start := time.Now()
	tr.do("serve.evaluate", "r1", func() {
		time.Sleep(2 * time.Millisecond)
		tr.do("sim.run", "r1/ARM16", func() { time.Sleep(3 * time.Millisecond) })
		tr.do("sim.run", "r1/FITS8", func() { time.Sleep(3 * time.Millisecond) })
	})
	tr.do("archive.save", "r1", func() { time.Sleep(time.Millisecond) })
	wall := time.Since(start).Seconds()
	self, covered := tr.ledger()
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if math.Abs(sum-covered) > 1e-9 {
		t.Fatalf("self times %v != covered %v", sum, covered)
	}
	if self["sim.run"] < 0.006 || self["serve.evaluate"] < 0.002 {
		t.Fatalf("self times %v", self)
	}
	// The parent's self time is its span less exactly its children's.
	dur := func(s span) int64 { return s.End - s.Start }
	ev := tr.spans[0]
	if want := float64(dur(ev)-dur(tr.spans[1])-dur(tr.spans[2])) / 1e9; math.Abs(self["serve.evaluate"]-want) > 1e-12 {
		t.Fatalf("serve.evaluate self %v, want %v", self["serve.evaluate"], want)
	}
	o := newLayerOutcome()
	tr.reconcile(o, wall)
	if len(o.problems) != 0 {
		t.Fatalf("clean ledger gated: %v", o.problems)
	}

	tr.do("mystery.layer", "x", func() {})
	o = newLayerOutcome()
	tr.reconcile(o, time.Since(start).Seconds())
	if len(o.problems) == 0 {
		t.Fatal("undeclared span not gated")
	}
	// A nil tracer runs the call and records nothing.
	var nilT *tracer
	ran := false
	nilT.do("sim.run", "x", func() { ran = true })
	if !ran {
		t.Fatal("nil tracer skipped the call")
	}
}

// The stage record sim.PrepareWith logs becomes one child span per
// stage, inside the preparation's span, and the ledger still
// reconciles.
func TestPrepareStagesBecomeSpans(t *testing.T) {
	k, err := kernels.Get("crc32")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	if _, err := prepare(tr, "crc32", k, 1, synth.DefaultOptions(), nil); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(tr.t0).Seconds()
	root := tr.spans[0]
	if root.Name != "sim.prepare" || root.Parent != -1 {
		t.Fatalf("root span %+v", root)
	}
	var names []string
	for _, s := range tr.spans[1:] {
		if s.Parent != 0 || s.Start < root.Start || s.End > root.End || s.End < s.Start {
			t.Errorf("stage span %+v not inside %+v", s, root)
		}
		names = append(names, s.Name)
	}
	want := []string{"kernels.build", "arm.assemble", "profile.collect", "synth.synthesize",
		"translate.translate", "thumb.size", "cpu.predecode"}
	if !slices.Equal(names, want) {
		t.Fatalf("stage spans %v, want %v", names, want)
	}
	o := newLayerOutcome()
	tr.reconcile(o, wall)
	if len(o.problems) != 0 {
		t.Fatalf("ledger gated: %v", o.problems)
	}
	// Without a tracer the preparation runs with stage timing off.
	if _, err := prepare(nil, "crc32", k, 1, synth.DefaultOptions(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper_suite", "--trace", "2"},
		{"--workload", "paper_suite", "--seconds", "0"},
	} {
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed a result: %s", out.String())
	}
}
